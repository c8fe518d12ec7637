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

from typing import Optional

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
        # not yet come: index -> (entry, signal, replay flag).
        self._ready: dict[int, tuple[WriteEntry, Signal, bool]] = {}
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
    def execute(self, request) -> Signal:
        """Direct JDBC entry point (Tomcat configured without C-JDBC).

        Reads cost their CPU demand; writes also advance the local state
        with a locally-generated write id (there is no cluster to keep
        consistent in this mode).
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
            return self._apply(entry, replay=False)
        return self.execute_read(request.db_demand, request.weight)

    def execute_read(self, demand: float, weight: int = 1) -> Signal:
        """Run a read query of the given CPU demand; the signal fires when
        the result set is ready.  ``weight`` batches that many identical
        reads (cohorts) whose summed demand is ``demand``."""
        sig = Signal(self.kernel)
        if not self.running:
            sig.fail(ServerNotRunning(self.name))
            return sig
        if not self._admit():
            sig.fail(ConnectionError(f"{self.name}: too many connections"))
            return sig
        self._begin(weight)

        def ok() -> None:
            self.reads_served += weight
            self._end(weight=weight)
            sig.succeed_tail(self)  # tail of a _run_then continuation

        def fail(err: BaseException) -> None:
            self._end(ok=False, weight=weight)
            sig.fail(err)

        self._run_then(demand, ok, fail, weight=weight)
        return sig

    def execute_write(self, entry: WriteEntry) -> Signal:
        """Apply a live write (fanned out by C-JDBC) — consumes CPU then
        advances the replica state."""
        return self._apply(entry, replay=False)

    def replay_write(self, entry: WriteEntry) -> Signal:
        """Apply a write during state reconciliation (same cost model)."""
        return self._apply(entry, replay=True)

    def _apply(self, entry: WriteEntry, replay: bool) -> Signal:
        """Concurrent writes run their CPU work in parallel (the node CPU is
        processor-shared) but *commit* strictly in recovery-log index order,
        which is how C-JDBC's total ordering of writes manifests at each
        backend."""
        sig = Signal(self.kernel)
        if not self.running:
            sig.fail(ServerNotRunning(self.name))
            return sig
        if entry.index < self.applied_index or entry.index in self._ready:
            sig.fail(
                RuntimeError(
                    f"{self.name}: write #{entry.index} already applied or "
                    f"in flight (at #{self.applied_index})"
                )
            )
            return sig
        self._begin(entry.weight)

        def ok() -> None:
            self._ready[entry.index] = (entry, sig, replay)
            self._commit_ready()

        def fail(err: BaseException) -> None:
            self._end(ok=False, weight=entry.weight)
            sig.fail(err)

        self._run_then(entry.demand, ok, fail, weight=entry.weight)
        return sig

    def _commit_ready(self) -> None:
        """Commit every write whose predecessors have all committed."""
        while self.applied_index in self._ready:
            entry, sig, replay = self._ready.pop(self.applied_index)
            self.applied_index = entry.index + 1
            self.state_digest = advance_digest(self.state_digest, entry.write_id)
            if replay:
                self.replays_applied += 1
            else:
                self.writes_applied += 1
            self._end(weight=entry.weight)
            sig.succeed(self)
