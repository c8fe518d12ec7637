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
from typing import Optional

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
            pending_fn=lambda handle: handle.inflight,
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
    def execute(self, request: WebRequest) -> Signal:
        """Route one query; the signal fires when the result is ready."""
        sig = Signal(self.kernel)
        if not self.running:
            sig.fail(ServerNotRunning(self.name))
            return sig
        request.trace(self.name)
        self._begin(request.weight)
        self._run_then(
            self.route_demand * request.weight,
            lambda: self._route(request, sig),
            lambda err: self._fail(sig, err, request.weight),
            weight=request.weight,
        )
        return sig

    def _route(self, request: WebRequest, sig: Signal) -> None:
        if request.is_write:
            self._route_write(request, sig)
        else:
            self._route_read(request, sig)

    def _route_read(self, request: WebRequest, sig: Signal) -> None:
        enabled = self.enabled_backends()
        weight = request.weight
        if not enabled:
            self._fail(
                sig, ServerNotRunning(f"{self.name}: no enabled backend"), weight
            )
            return
        assert self._policy is not None
        handle = self._policy.choose(enabled)
        self.reads_routed += weight
        handle.inflight += weight

        def answered(s: Signal) -> None:
            handle.inflight -= weight
            self._relay(s, sig, weight)

        def dispatch() -> None:
            inner = handle.server.execute_read(request.db_demand, weight)
            inner.add_callback(answered)

        self._after_hop(dispatch)

    def _route_write(self, request: WebRequest, sig: Signal) -> None:
        enabled = self.enabled_backends()
        weight = request.weight
        if not enabled:
            self._fail(
                sig, ServerNotRunning(f"{self.name}: no enabled backend"), weight
            )
            return
        entry = self.log.append(request.interaction, request.db_demand, weight)
        self.writes_routed += weight
        remaining = len(enabled)
        failed: list[BaseException] = []

        def one_done(s: Signal) -> None:
            nonlocal remaining
            remaining -= 1
            if s.error is not None:
                failed.append(s.error)
            if remaining == 0:
                if failed and len(failed) == len(enabled):
                    # Every replica failed the write: surface the error.
                    self._fail(sig, failed[0], weight)
                else:
                    # Quorum semantics of RAIDb-1: the write succeeded on
                    # the surviving replicas; dead ones are repaired later.
                    self._end(weight=weight)
                    sig.succeed(self)

        for handle in enabled:
            self._after_hop(
                lambda h=handle: h.server.execute_write(entry).add_callback(one_done)
            )

    def _relay(self, inner: Signal, sig: Signal, weight: int = 1) -> None:
        # Only ever the last statement of a signal callback (``answered``).
        if inner.error is not None:
            self._fail(sig, inner.error, weight)
        else:
            self._end(weight=weight)
            sig.succeed_tail(self)

    def _fail(self, sig: Signal, err: BaseException, weight: int = 1) -> None:
        self._end(ok=False, weight=weight)
        sig.fail(err)
