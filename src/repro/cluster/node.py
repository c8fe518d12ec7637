"""Simulated cluster node.

A node bundles a processor-sharing CPU resource, a simple memory model, a
filesystem and a registry of the server processes running on it.  Memory is
accounted as::

    used = base_os + sum(static footprints) + per_job * active_cpu_jobs

which reproduces Table 1's observation: deploying Jade's management
components on every node adds a small *static* memory footprint but no
per-request CPU cost.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.filesystem import NodeFilesystem
from repro.metrics.aggregates import left_sum
from repro.simulation.kernel import SimKernel
from repro.simulation.resources import CapacityModel, PsCpu, constant_capacity


class NodeDown(RuntimeError):
    """Raised when using a crashed node, and delivered to aborted jobs."""


class NodeIsolated(RuntimeError):
    """Delivered to jobs lost on a network-partitioned node.

    Unlike :class:`NodeDown` the node itself is healthy — it keeps
    answering heartbeats (``up`` stays True) — but work sent to it is
    lost until the partition heals."""


class Node:
    """One machine of the simulated cluster."""

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        cpu_speed: float = 1.0,
        capacity_model: CapacityModel = constant_capacity,
        memory_mb: float = 1024.0,
        base_os_mb: float = 96.0,
        per_job_mb: float = 1.5,
        instance: Optional[object] = None,
        market: str = "on-demand",
    ) -> None:
        self.kernel = kernel
        self.name = name
        #: typed capacity/price profile when bought from a heterogeneous
        #: market (an :class:`~repro.market.catalog.InstanceType`); None
        #: for the paper's uniform pool
        self.instance = instance
        #: which market the node was bought on ("on-demand" or "spot");
        #: spot nodes can receive interruption notices
        self.market = market
        self.cpu = PsCpu(
            kernel, speed=cpu_speed, capacity_model=capacity_model, name=f"{name}.cpu"
        )
        self.memory_mb = memory_mb
        self.base_os_mb = base_os_mb
        self.per_job_mb = per_job_mb
        self.fs = NodeFilesystem()
        self.up = True
        #: network-partitioned: heartbeats still answer but work is lost
        self.isolated = False
        #: where CPU work goes, kept on health change: the CPU's own
        #: ``submit`` while the node is up and not isolated, else
        #: :meth:`run_job`, which refuses it
        self.submit: Callable[..., None] = self.cpu.submit
        self._footprints: dict[str, float] = {}
        #: ``_static_mb``: ``base_os_mb`` plus the footprints, kept on
        #: register/unregister
        self._footprints_changed()
        self._crash_listeners: list[Callable[["Node"], None]] = []

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def run_job(
        self,
        demand: float,
        weight: int = 1,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> None:
        """Submit CPU work of ``demand`` seconds (at unit speed).  With a
        continuation, ``then(*args)`` runs on completion and
        ``fail(*args, error)`` on abort; without one the job is busy time
        that nobody waits on.  ``weight`` batches that many identical
        requests into one job (see
        :class:`~repro.simulation.resources.PsCpu`).

        On a crashed node a job without a continuation raises
        :class:`NodeDown`; a continuation job is failed asynchronously
        with it instead, exactly like work aborted by the crash.

        :attr:`submit` takes the same arguments and is the request path's
        entry: it *is* ``cpu.submit`` on a healthy node, so a hop skips
        this method, and it is this method once the node has crashed or
        been isolated, so the refusals below hold there."""
        if self.up and not self.isolated:
            self.cpu.submit(demand, weight, then, fail, args)
            return
        if not self.up:
            if then is None:
                raise NodeDown(self.name)
            error: RuntimeError = NodeDown(self.name)
        else:
            # Isolated: the caller cannot tell an isolated node from a
            # healthy one (that is the point of a partition): the job is
            # accepted and fails asynchronously, like a timed-out RPC.
            if then is None:
                return
            error = NodeIsolated(self.name)
        self.kernel._post_at(self.kernel._now, fail, args + (error,))

    def degrade(self, factor: float) -> None:
        """Fail-slow hook: deliver only ``factor`` of nominal CPU speed."""
        self.cpu.set_degradation(factor)

    def restore(self) -> None:
        """Clear any fail-slow degradation (back to full speed)."""
        self.cpu.set_degradation(1.0)

    # ------------------------------------------------------------------
    # Network partition (gray from the heartbeat's point of view)
    # ------------------------------------------------------------------
    def isolate(self) -> None:
        """Partition the node: in-flight work is lost, new work fails, but
        the node still answers heartbeats (``up`` stays True)."""
        if not self.up or self.isolated:
            return
        self.isolated = True
        self.submit = self.run_job
        self.cpu.abort_all(NodeIsolated(self.name))

    def heal(self) -> None:
        """Reconnect an isolated node (a crashed one keeps refusing)."""
        self.isolated = False
        if self.up:
            self.submit = self.cpu.submit

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def register_footprint(self, name: str, mb: float) -> None:
        """Account ``mb`` of static memory for a named consumer (a server
        binary, a Jade management component...)."""
        if mb < 0:
            raise ValueError("footprint must be >= 0")
        self._footprints[name] = mb
        self._footprints_changed()

    def unregister_footprint(self, name: str) -> None:
        self._footprints.pop(name, None)
        self._footprints_changed()

    def _footprints_changed(self) -> None:
        self._static_mb = self.base_os_mb + left_sum(self._footprints.values())

    def memory_used_mb(self) -> float:
        dynamic = self.per_job_mb * self.cpu._live
        return min(self.memory_mb, self._static_mb + dynamic)

    def memory_utilization(self) -> float:
        """Memory used as a fraction of total node memory:
        :meth:`memory_used_mb`'s operations in the same order, in one
        frame (the node sampler reads it every second)."""
        memory_mb = self.memory_mb
        dynamic = self.per_job_mb * self.cpu._live
        return min(memory_mb, self._static_mb + dynamic) / memory_mb

    @property
    def footprints(self) -> dict[str, float]:
        return dict(self._footprints)

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def on_crash(self, listener: Callable[["Node"], None]) -> None:
        """Register a callback fired when the node crashes."""
        self._crash_listeners.append(listener)

    def crash(self) -> None:
        """Fail the node: abort all in-flight CPU work, drop state, notify.

        Idempotent (crashing a dead node is a no-op).
        """
        if not self.up:
            return
        self.up = False
        self.submit = self.run_job
        self.cpu.abort_all(NodeDown(self.name))
        for listener in list(self._crash_listeners):
            listener(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return f"<Node {self.name} {state} jobs={self.cpu.active_jobs}>"


def make_nodes(
    kernel: SimKernel,
    count: int,
    prefix: str = "node",
    **node_kwargs,
) -> list[Node]:
    """Convenience: build ``count`` identical nodes named ``prefix{i}``."""
    return [Node(kernel, f"{prefix}{i}", **node_kwargs) for i in range(1, count + 1)]
