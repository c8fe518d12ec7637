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
from repro.simulation.kernel import SimKernel
from repro.simulation.resources import (
    CapacityModel,
    CpuJob,
    PsCpu,
    constant_capacity,
)


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
        self._footprints: dict[str, float] = {}
        self._crash_listeners: list[Callable[["Node"], None]] = []
        # Utilization sampling bookkeeping (used by probes).
        self._last_busy = 0.0
        self._last_busy_t = kernel.now

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def run_job(
        self,
        demand: float,
        tag: object = None,
        weight: int = 1,
        then: Optional[Callable[..., None]] = None,
        fail: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> CpuJob:
        """Submit CPU work of ``demand`` seconds (at unit speed) and return
        the job.  With a continuation, ``then(*args)`` runs on completion
        and ``fail(*args, error)`` on abort; without one, ``job.done``
        fires.
        ``weight`` batches that many identical requests into one job (see
        :class:`~repro.simulation.resources.CpuJob`).

        On a crashed node a job without a continuation raises
        :class:`NodeDown`; a continuation job is failed asynchronously
        with it instead, exactly like work aborted by the crash."""
        if self.up and not self.isolated:
            return self.cpu.submit(
                CpuJob(self.kernel, demand, tag, weight, then, fail, args)
            )
        if not self.up and then is None:
            raise NodeDown(self.name)
        job = CpuJob(self.kernel, demand, tag, weight, then, fail, args)
        if not self.up:
            job._settle(self.kernel, NodeDown(self.name))
            return job
        # Isolated: the caller cannot tell an isolated node from a healthy
        # one (that is the point of a partition): the job is accepted and
        # fails asynchronously, like a timed-out RPC.  Callbacks added to
        # ``job.done`` after this fire via the kernel (see
        # Signal.add_callback).
        job._settle(self.kernel, NodeIsolated(self.name))
        return job

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
        self.cpu.abort_all(NodeIsolated(self.name))

    def heal(self) -> None:
        """Reconnect an isolated node."""
        self.isolated = False

    def cpu_utilization_since_last_sample(self) -> float:
        """Fraction of time the CPU was busy since the previous call.

        This is the raw signal a :class:`~repro.jade.sensors.CpuProbe`
        samples once per second.  The first call measures since node
        creation.  Returns 0.0 for a zero-length interval.
        """
        now = self.kernel.now
        busy = self.cpu.busy_time()
        span = now - self._last_busy_t
        delta = busy - self._last_busy
        self._last_busy = busy
        self._last_busy_t = now
        if span <= 0.0:
            return 0.0
        return min(1.0, delta / span)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def register_footprint(self, name: str, mb: float) -> None:
        """Account ``mb`` of static memory for a named consumer (a server
        binary, a Jade management component...)."""
        if mb < 0:
            raise ValueError("footprint must be >= 0")
        self._footprints[name] = mb

    def unregister_footprint(self, name: str) -> None:
        self._footprints.pop(name, None)

    def memory_used_mb(self) -> float:
        static = self.base_os_mb + sum(self._footprints.values())
        dynamic = self.per_job_mb * self.cpu.active_jobs
        return min(self.memory_mb, static + dynamic)

    def memory_utilization(self) -> float:
        """Memory used as a fraction of total node memory."""
        return self.memory_used_mb() / self.memory_mb

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
        self.cpu.abort_all(NodeDown(self.name))
        for listener in list(self._crash_listeners):
            listener(self)

    def reboot(self) -> None:
        """Bring a crashed node back with empty filesystem and memory (a
        replacement machine in practice)."""
        if self.up:
            return
        self.up = True
        self.isolated = False
        self.cpu.set_degradation(1.0)
        self.fs = NodeFilesystem()
        self._footprints.clear()

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
