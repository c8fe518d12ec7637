"""Simulated C-JDBC database load balancer.

"C-JDBC plays the role of load balancer and replication consistency
manager, each server containing a full copy of the whole database (full
mirroring)." (§4.1)

The controller exposes a JDBC endpoint to Tomcat and routes queries:

* **reads** go to one ENABLED backend chosen by the configured policy
  (``LeastPendingRequestsFirst`` by default, as in C-JDBC);
* **writes** are appended to the :class:`~repro.legacy.recovery_log.RecoveryLog`
  and fanned out to *all* ENABLED backends; the query completes when every
  replica has committed (full-mirroring write barrier).

Backends are managed through the controller's administrative API — the one
the paper's actuators drive through the MySQL/C-JDBC wrappers:

* :meth:`attach_backend` inserts a replica in SYNCING state and replays the
  recovery-log suffix it is missing; the replica becomes ENABLED only once
  caught up ("Once these requests have been processed by the newly
  allocated server, we can reinsert it in the clustered database as an
  active and up-to-date replica").
* :meth:`detach_backend` disables a replica and records its checkpoint
  index, so re-attaching it later only replays the gap.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.configfiles import CjdbcXml
from repro.legacy.directory import Directory, EndpointNotFound
from repro.legacy.mysql import MySqlServer
from repro.legacy.policies import BalancingPolicy, make_policy
from repro.legacy.recovery_log import RecoveryLog
from repro.legacy.requests import WebRequest
from repro.legacy.server import LegacyServer, ServerNotRunning
from repro.simulation.kernel import SimKernel
from repro.simulation.process import Process, Signal, wait


class BackendState(enum.Enum):
    SYNCING = "syncing"
    ENABLED = "enabled"
    DISABLED = "disabled"


class BackendHandle:
    """Controller-side view of one MySQL replica."""

    __slots__ = (
        "name",
        "server",
        "state",
        "sync_started_at",
        "sync_replayed",
        "inflight",
    )

    def __init__(self, name: str, server: MySqlServer, state: BackendState):
        self.name = name
        self.server = server
        self.state = state
        self.sync_started_at: Optional[float] = None
        self.sync_replayed = 0
        #: controller-side count of reads dispatched but not yet answered
        #: (what C-JDBC's LeastPendingRequestsFirst actually inspects)
        self.inflight = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Backend {self.name} {self.state.value}>"


class CJdbcController(LegacyServer):
    """The C-JDBC controller process (runs on its own node)."""

    CONFIG_PATH = "/etc/cjdbc/cjdbc.xml"
    footprint_mb = 64.0

    #: controller CPU consumed to parse/route one query (seconds)
    route_demand = 0.0003

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        node: Node,
        directory: Directory,
        lan: Optional[Lan] = None,
    ) -> None:
        super().__init__(kernel, name, node, directory, lan)
        self.conf: Optional[CjdbcXml] = None
        self.log = RecoveryLog()
        self._backends: dict[str, BackendHandle] = {}
        self._policy: Optional[BalancingPolicy] = None
        self.reads_routed = 0
        self.writes_routed = 0
        self.syncs_completed = 0

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        text = self.node.fs.read(self.CONFIG_PATH)
        self.conf = CjdbcXml.parse(text)
        self._policy = make_policy(
            self.conf.policy,
            pending_fn=operator.attrgetter("inflight"),
        )

    def _endpoints(self) -> list[tuple[str, int]]:
        assert self.conf is not None
        return [(self.host, self.conf.port)]

    def _started(self) -> None:
        # Backends declared in the config file are attached at start; with
        # an empty recovery log they enable instantly (initial deployment
        # assumes consistent, freshly-loaded replicas).
        assert self.conf is not None
        for decl in self.conf.backends:
            if decl.name in self._backends:
                continue
            try:
                server = self.directory.lookup(decl.host, decl.port)
            except EndpointNotFound:
                raise ServerNotRunning(
                    f"{self.name}: configured backend {decl.name} "
                    f"({decl.host}:{decl.port}) is unreachable"
                ) from None
            self.attach_backend(decl.name, server)

    @property
    def port(self) -> int:
        if self.conf is None:
            raise ServerNotRunning(f"{self.name}: not configured")
        return self.conf.port

    # ------------------------------------------------------------------
    # Backend administration
    # ------------------------------------------------------------------
    def backends(self) -> list[BackendHandle]:
        return list(self._backends.values())

    def enabled_backends(self) -> list[BackendHandle]:
        return [b for b in self._backends.values() if b.state is BackendState.ENABLED]

    def backend(self, name: str) -> BackendHandle:
        return self._backends[name]

    def attach_backend(self, name: str, server: MySqlServer) -> BackendHandle:
        """Insert a replica.  If it is missing log entries it enters SYNCING
        and a replay process brings it up to date; otherwise it enables
        immediately."""
        if not self.running:
            raise ServerNotRunning(self.name)
        if name in self._backends:
            raise ValueError(f"backend {name!r} already attached")
        if not isinstance(server, MySqlServer):
            raise TypeError(f"backend must be a MySqlServer, got {type(server)}")
        handle = BackendHandle(name, server, BackendState.SYNCING)
        self._backends[name] = handle
        if server.applied_index >= self.log.next_index:
            handle.state = BackendState.ENABLED
            if self._policy is not None:
                self._policy.reset()
        else:
            handle.sync_started_at = self.kernel.now
            Process(self.kernel, self._sync(handle), name=f"sync:{name}")
        return handle

    def _sync(self, handle: BackendHandle):
        """Replay the missing log suffix onto a SYNCING backend, then enable
        it.  New writes appended during replay are picked up because the
        loop re-reads ``log.next_index`` each iteration."""
        server = handle.server
        while server.applied_index < self.log.next_index:
            if handle.state is not BackendState.SYNCING:
                return  # detached mid-sync
            entry = self.log.get(server.applied_index)
            try:
                yield wait(server.replay_write(entry))
            except Exception:
                # Replica died mid-sync: drop it from the controller.
                self._backends.pop(handle.name, None)
                handle.state = BackendState.DISABLED
                return
            handle.sync_replayed += 1
        if handle.state is BackendState.SYNCING:
            handle.state = BackendState.ENABLED
            self.syncs_completed += 1
            if self._policy is not None:
                self._policy.reset()

    def detach_backend(self, name: str) -> int:
        """Disable a replica and checkpoint its position; returns the
        checkpoint index."""
        handle = self._backends.pop(name, None)
        if handle is None:
            raise KeyError(name)
        handle.state = BackendState.DISABLED
        checkpoint = handle.server.applied_index
        self.log.set_checkpoint(name, min(checkpoint, self.log.next_index))
        if self._policy is not None:
            self._policy.reset()
        return checkpoint

    def drop_backend(self, name: str) -> None:
        """Remove a dead replica without checkpointing (crash path)."""
        handle = self._backends.pop(name, None)
        if handle is not None:
            handle.state = BackendState.DISABLED
            if self._policy is not None:
                self._policy.reset()

    # ------------------------------------------------------------------
    # Query routing (the JDBC surface Tomcat talks to)
    # ------------------------------------------------------------------
    def execute(
        self,
        request: WebRequest,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
    ) -> Optional[Signal]:
        """Route one query.

        With a continuation, ``then(request)`` runs when the result is
        ready and ``fail(request, error)`` when the query fails, each
        delivered as the signal would deliver to a lone waiter: a read's
        answer through the kernel's tail dispatch, a write's answer and
        every failure posted.  Without one, the returned signal fires with
        the controller (or fails with the error)."""
        sig = Signal(self.kernel) if then is None else None
        if not self.running:
            self._query_failed(sig, fail, (request,), ServerNotRunning(self.name))
            return sig
        request.trace(self.name)
        weight = request.weight
        self._begin(weight)
        self._run_then(
            self.route_demand * weight, weight, self._route, self._fail,
            request, then, fail, sig,
        )
        return sig

    def _route(self, request: WebRequest, then, fail, sig) -> None:
        if request.is_write:
            self._route_write(request, then, fail, sig)
        else:
            self._route_read(request, then, fail, sig)

    def _route_read(self, request: WebRequest, then, fail, sig) -> None:
        enabled = self.enabled_backends()
        if not enabled:
            self._fail(
                request, then, fail, sig,
                ServerNotRunning(f"{self.name}: no enabled backend"),
            )
            return
        assert self._policy is not None
        handle = self._policy.choose(enabled)
        weight = request.weight
        self.reads_routed += weight
        handle.inflight += weight
        self._after_hop(self._dispatch_read, handle, request, then, fail, sig)

    def _dispatch_read(
        self, handle: BackendHandle, request: WebRequest, then, fail, sig
    ) -> None:
        handle.server.execute_read(
            request.db_demand,
            request.weight,
            self._answered,
            self._unanswered,
            (handle, request, then, fail, sig),
        )

    def _answered(
        self, handle: BackendHandle, request: WebRequest, then, fail, sig
    ) -> None:
        # Only ever the tail of MySQL's read reply.
        weight = request.weight
        handle.inflight -= weight
        self._end(weight=weight)
        if sig is None:
            self.kernel._tail(then, (request,))
        else:
            sig.succeed_tail(self)

    def _unanswered(
        self, handle: BackendHandle, request: WebRequest, then, fail, sig, err
    ) -> None:
        handle.inflight -= request.weight
        self._fail(request, then, fail, sig, err)

    def _route_write(self, request: WebRequest, then, fail, sig) -> None:
        enabled = self.enabled_backends()
        if not enabled:
            self._fail(
                request, then, fail, sig,
                ServerNotRunning(f"{self.name}: no enabled backend"),
            )
            return
        weight = request.weight
        entry = self.log.append(request.interaction, request.db_demand, weight)
        self.writes_routed += weight
        barrier = _WriteBarrier(request, then, fail, sig, len(enabled))
        for handle in enabled:
            self._after_hop(self._send_write, handle, entry, barrier)

    def _send_write(
        self, handle: BackendHandle, entry, barrier: "_WriteBarrier"
    ) -> None:
        handle.server.execute_write(
            entry, self._write_settled, self._write_settled, (barrier,)
        )

    def _write_settled(
        self, barrier: "_WriteBarrier", err: Optional[BaseException] = None
    ) -> None:
        """One replica answered the write (``err`` when it failed); answer
        the query once all have."""
        barrier.remaining -= 1
        if err is not None:
            barrier.failed += 1
            if barrier.error is None:
                barrier.error = err
        if barrier.remaining:
            return
        request = barrier.request
        if barrier.failed == barrier.replicas:
            # Every replica failed the write: surface the error.
            self._fail(
                request, barrier.then, barrier.fail, barrier.sig, barrier.error
            )
            return
        # Quorum semantics of RAIDb-1: the write succeeded on the
        # surviving replicas; dead ones are repaired later.
        self._end(weight=request.weight)
        if barrier.sig is None:
            self.kernel.post(barrier.then, request)
        else:
            barrier.sig.succeed(self)

    def _fail(
        self, request: WebRequest, then, fail, sig, err: BaseException
    ) -> None:
        self._end(ok=False, weight=request.weight)
        self._query_failed(sig, fail, (request,), err)


class _WriteBarrier:
    """A write fanned out to every ENABLED replica, answered once all of
    them have (full-mirroring write barrier)."""

    __slots__ = (
        "request",
        "then",
        "fail",
        "sig",
        "replicas",
        "remaining",
        "failed",
        "error",
    )

    def __init__(self, request: WebRequest, then, fail, sig, replicas: int) -> None:
        self.request = request
        self.then = then
        self.fail = fail
        self.sig = sig
        self.replicas = replicas
        self.remaining = replicas
        self.failed = 0
        self.error: Optional[BaseException] = None
