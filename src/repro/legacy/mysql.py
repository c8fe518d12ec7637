"""Simulated MySQL database server.

One replica of the fully-mirrored database (C-JDBC RAIDb-1: "each server
containing a full copy of the whole database").  The replica's logical
state is summarized by:

* ``applied_index`` — recovery-log index of the next write it expects
  (i.e. it has executed all writes with index < applied_index);
* ``state_digest`` — an order-sensitive digest of the applied write
  sequence, used by tests and the consistency checker to prove that two
  replicas are byte-identical iff their digests match.

Queries consume CPU on the node (the demand travels on the request); writes
additionally advance the digest.  Replayed writes (state reconciliation)
take the same code path as live writes, so synchronization competes for CPU
with foreground load — as on the real testbed.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.configfiles import MyCnf
from repro.legacy.directory import Directory
from repro.legacy.recovery_log import WriteEntry
from repro.legacy.server import LegacyServer, ServerNotRunning
from repro.simulation.kernel import SimKernel
from repro.simulation.process import Signal

_DIGEST_MASK = (1 << 61) - 1
_DIGEST_MULT = 1000003


def advance_digest(digest: int, write_id: int) -> int:
    """Order-sensitive digest combine (FNV-style)."""
    return ((digest * _DIGEST_MULT) ^ write_id) & _DIGEST_MASK


class MySqlServer(LegacyServer):
    """A MySQL replica."""

    CONFIG_PATH = "/etc/mysql/my.cnf"
    footprint_mb = 80.0

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        node: Node,
        directory: Directory,
        lan: Optional[Lan] = None,
    ) -> None:
        super().__init__(kernel, name, node, directory, lan)
        self.conf: Optional[MyCnf] = None
        self.applied_index = 0
        self.state_digest = 0
        self.reads_served = 0
        self.writes_applied = 0
        self.replays_applied = 0
        # Writes whose CPU work finished but whose turn (index order) has
        # not yet come: index -> (entry, replay flag, continuation, its
        # args, signal); the signal is None when a continuation was given.
        self._ready: dict[int, tuple] = {}
        # Ids for writes executed through a direct (non-clustered) JDBC
        # connection; offset far above recovery-log ids.
        self._next_local_write_id = 1_000_000_000

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        text = self.node.fs.read(self.CONFIG_PATH)
        self.conf = MyCnf.parse(text)

    def _endpoints(self) -> list[tuple[str, int]]:
        assert self.conf is not None
        return [(self.host, self.conf.port)]

    @property
    def port(self) -> int:
        if self.conf is None:
            raise ServerNotRunning(f"{self.name}: not configured")
        return self.conf.port

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        request,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
    ) -> Optional[Signal]:
        """Direct JDBC entry point (Tomcat configured without C-JDBC).

        Reads cost their CPU demand; writes also advance the local state
        with a locally-generated write id (there is no cluster to keep
        consistent in this mode).  With a continuation, ``then(request)``
        runs when the query is done and ``fail(request, error)`` when it
        fails (see :meth:`execute_read`); without one, the returned signal
        fires.
        """
        if request.is_write:
            entry = WriteEntry(
                self.applied_index,
                self._next_local_write_id,
                request.interaction,
                request.db_demand,
                request.weight,
            )
            self._next_local_write_id += 1
            return self._apply(entry, False, then, fail, (request,))
        return self.execute_read(
            request.db_demand, request.weight, then, fail, (request,)
        )

    def execute_read(
        self,
        demand: float,
        weight: int = 1,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> Optional[Signal]:
        """Run a read query of the given CPU demand.  ``weight`` batches
        that many identical reads (cohorts) whose summed demand is
        ``demand``.

        Without a continuation, returns a signal that fires when the
        result set is ready.  With one, no signal is built:
        ``then(*args)`` is handed to the kernel's tail dispatch and
        ``fail(*args, error)`` is posted, exactly as the signal would
        deliver to a lone waiter added on return (a positive ``demand``
        is assumed, as on the request path: Tomcat answers requests
        without database work itself)."""
        sig = Signal(self.kernel) if then is None else None
        if not self.running:
            self._query_failed(sig, fail, args, ServerNotRunning(self.name))
            return sig
        if not self._admit():
            self._query_failed(
                sig, fail, args, ConnectionError(f"{self.name}: too many connections")
            )
            return sig
        self._begin(weight)
        self._run_then(
            demand, weight, self._read_done, self._read_failed,
            weight, then, fail, args, sig,
        )
        return sig

    def _read_done(self, weight, then, fail, args, sig) -> None:
        self.reads_served += weight
        self._end(weight=weight)
        # Tail of a _run_then continuation.
        if sig is None:
            self.kernel._tail(then, args)
        else:
            sig.succeed_tail(self)

    def _read_failed(self, weight, then, fail, args, sig, err) -> None:
        self._end(ok=False, weight=weight)
        self._query_failed(sig, fail, args, err)

    def execute_write(
        self,
        entry: WriteEntry,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> Optional[Signal]:
        """Apply a live write (fanned out by C-JDBC) — consumes CPU then
        advances the replica state.  Answers through the continuation,
        posted at commit or failure, or else through the returned
        signal."""
        return self._apply(entry, False, then, fail, args)

    def replay_write(self, entry: WriteEntry) -> Signal:
        """Apply a write during state reconciliation (same cost model)."""
        return self._apply(entry, True)

    def _apply(
        self,
        entry: WriteEntry,
        replay: bool,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> Optional[Signal]:
        """Concurrent writes run their CPU work in parallel (the node CPU is
        processor-shared) but *commit* strictly in recovery-log index order,
        which is how C-JDBC's total ordering of writes manifests at each
        backend."""
        sig = Signal(self.kernel) if then is None else None
        if not self.running:
            self._query_failed(sig, fail, args, ServerNotRunning(self.name))
            return sig
        if entry.index < self.applied_index or entry.index in self._ready:
            self._query_failed(
                sig,
                fail,
                args,
                RuntimeError(
                    f"{self.name}: write #{entry.index} already applied or "
                    f"in flight (at #{self.applied_index})"
                ),
            )
            return sig
        self._begin(entry.weight)
        self._run_then(
            entry.demand, entry.weight, self._write_done, self._write_failed,
            entry, replay, then, fail, args, sig,
        )
        return sig

    def _write_done(self, entry, replay, then, fail, args, sig) -> None:
        self._ready[entry.index] = (entry, replay, then, args, sig)
        self._commit_ready()

    def _write_failed(self, entry, replay, then, fail, args, sig, err) -> None:
        self._end(ok=False, weight=entry.weight)
        self._query_failed(sig, fail, args, err)

    def _commit_ready(self) -> None:
        """Commit every write whose predecessors have all committed."""
        while self.applied_index in self._ready:
            entry, replay, then, args, sig = self._ready.pop(self.applied_index)
            self.applied_index = entry.index + 1
            self.state_digest = advance_digest(self.state_digest, entry.write_id)
            if replay:
                self.replays_applied += 1
            else:
                self.writes_applied += 1
            self._end(weight=entry.weight)
            if sig is None:
                self.kernel.post(then, *args)
            else:
                sig.succeed(self)
