"""Sensors.

"Sensors are responsible for the detection of the occurrence of a
particular event ... sensors must monitor and aggregate low-level
information such as CPU/memory usage, or higher-level information such as
client response times.  Sensors must be efficient and lightweight." (§3.4)

The CPU probe is the paper's workhorse: it samples per-node CPU utilization
every second, averages spatially over the tier's nodes and temporally with
a moving average (60 s for app servers, 90 s for databases — §5.2), and
pushes readings to its subscriber.  Sampling costs a small CPU job on each
sampled node, which is the source of Jade's (tiny) intrusivity in Table 1.

Lightweight means the once-a-second path reads state kept at the events
that change it, not rebuilt per sample: the tier's serving nodes
(:meth:`~repro.jade.actuators.TierManager.active_nodes`, rebuilt at a
membership or readiness change), each node's previous (time, busy)
anchor keyed by the node itself, and the probe's CPU cost submitted
through :attr:`~repro.cluster.node.Node.submit` (the CPU's own
``submit`` while the node is healthy).  A reading is a
:class:`~typing.NamedTuple`.  Every float is computed by the same
operations in the same order as a full rebuild would, so no output
moves.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from repro.cluster.node import Node
from repro.metrics.aggregates import (
    PAIRWISE_BLOCK,
    MovingAverage,
    left_sum,
    spatial_average,
)
from repro.simulation.kernel import PeriodicTask, SimKernel


class UtilizationSampler:
    """Non-destructive per-consumer utilization sampling.

    Several independent observers (a Jade probe, the experiment's metrics
    sampler) may watch the same node; each keeps its own (time, busy)
    anchor so they do not steal each other's deltas.  Anchors are keyed
    by the node itself (nodes hash by identity, so a pickled copy keeps
    its keys).
    """

    def __init__(self) -> None:
        self._anchors: dict[Node, tuple[float, float]] = {}

    def sample(self, node: Node) -> float:
        """Utilization of ``node`` since this sampler last looked at it.

        The first observation of a node only *seeds* the anchor and reads
        0.0: a replica grown at t=500 s must not have its first sample
        averaged over [0, 500] (which would under-report CPU and invite an
        immediate spurious shrink) — there is simply no delta yet.
        """
        now = node.kernel._now
        busy = node.cpu.busy_time()
        anchors = self._anchors
        anchor = anchors.get(node)
        anchors[node] = (now, busy)
        if anchor is None:
            return 0.0
        last_t, last_busy = anchor
        span = now - last_t
        if span <= 0.0:
            return 0.0
        return min(1.0, (busy - last_busy) / span)


class CpuReading(NamedTuple):
    """One probe notification."""

    t: float
    smoothed: float   # spatial + temporal average
    raw: float        # spatial average of the last period only
    node_count: int


ReadingListener = Callable[[CpuReading], None]
NodesProvider = Callable[[], list[Node]]


class CpuProbe:
    """Periodic CPU probe over a (dynamic) set of nodes.

    ``nodes_provider`` is consulted at every sample so a resized tier is
    followed automatically.  ``probe_demand_s`` CPU is consumed on every
    sampled node per sample (set 0 to model a free probe).
    """

    def __init__(
        self,
        kernel: SimKernel,
        nodes_provider: NodesProvider,
        window_s: float,
        period_s: float = 1.0,
        probe_demand_s: float = 0.0,
        name: str = "cpu-probe",
    ) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.kernel = kernel
        self.nodes_provider = nodes_provider
        self.period_s = period_s
        self.probe_demand_s = probe_demand_s
        self.name = name
        self.window = MovingAverage(window_s)
        self.sampler = UtilizationSampler()
        self.samples_taken = 0
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        self._listeners: tuple[ReadingListener, ...] = ()
        self._task: Optional[PeriodicTask] = None

    def subscribe(self, listener: ReadingListener) -> None:
        self._listeners += (listener,)

    # -- lifecycle hooks (driven by the sensor component wrapper) ----------
    def on_start(self, component=None) -> None:
        if self._task is None:
            self._task = self.kernel.every(self.period_s, self._sample)

    def on_stop(self, component=None) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def running(self) -> bool:
        return self._task is not None

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        nodes = [n for n in self.nodes_provider() if n.up]
        demand = self.probe_demand_s
        if demand > 0.0:
            for node in nodes:
                node.submit(demand)
        sample = self.sampler.sample
        count = len(nodes)
        if 0 < count < PAIRWISE_BLOCK:
            # spatial_average's own order below the block, in one pass:
            # left to right from 0.0, then divided by the count
            raw = 0.0
            for node in nodes:
                raw += sample(node)
            raw /= count
        else:
            raw = spatial_average([sample(n) for n in nodes])
        self.samples_taken += 1
        if raw != raw:  # NaN: empty tier
            return
        now = self.kernel._now
        smoothed = self.window.add(now, raw)
        reading = CpuReading(now, smoothed, raw, count)
        if self.tracer is not None:
            from repro.obs.events import ProbeReading

            self.tracer.emit(
                ProbeReading(
                    now,
                    probe=self.name,
                    smoothed=smoothed,
                    raw=raw,
                    nodes=count,
                )
            )
        for listener in self._listeners:
            listener(reading)


ServerProvider = Callable[[], Iterable[object]]
FailureListener = Callable[[object], None]


class HeartbeatSensor:
    """Failure detector for the self-recovery manager.

    Every period it pings each managed element (anything with ``running``
    and a ``node``); an element whose node is down, or which stopped
    running without a management action, is reported exactly once.
    ``members_provider`` lists every element still managed, including
    those ``servers_provider`` skips for a while (a replica under planned
    maintenance); a reported element is forgotten once it is no longer
    a member.  It defaults to ``servers_provider``.
    """

    def __init__(
        self,
        kernel: SimKernel,
        servers_provider: ServerProvider,
        period_s: float = 1.0,
        members_provider: Optional[ServerProvider] = None,
    ) -> None:
        self.kernel = kernel
        self.servers_provider = servers_provider
        self.members_provider = members_provider or servers_provider
        self.period_s = period_s
        self._listeners: tuple[FailureListener, ...] = ()
        #: unhealthy servers already reported, keyed by the server itself
        #: (servers hash by identity) so a pickled copy keeps its keys
        self._reported: set[object] = set()
        self._task: Optional[PeriodicTask] = None
        self.failures_detected = 0

    def subscribe(self, listener: FailureListener) -> None:
        self._listeners += (listener,)

    def on_start(self, component=None) -> None:
        if self._task is None:
            self._task = self.kernel.every(self.period_s, self._check)

    def on_stop(self, component=None) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _check(self) -> None:
        if self._reported:
            self._reported.intersection_update(self.members_provider())
        for server in self.servers_provider():
            node = getattr(server, "node", None)
            healthy = getattr(server, "running", True) and (
                node is None or node.up
            )
            if healthy:
                self._reported.discard(server)
            elif server not in self._reported:
                self._reported.add(server)
                self.failures_detected += 1
                for listener in self._listeners:
                    listener(server)


class LatencyReading(NamedTuple):
    """One latency-sensor notification (the shape of :class:`CpuReading`,
    so a :class:`~repro.jade.reactors.PolicyReactor` reads it alike)."""

    t: float
    smoothed: float   # moving average of per-request latency, seconds
    raw: float        # mean latency over the last period, seconds
    node_count: int   # latencies recorded in the last period


class LatencySensor:
    """Periodic sensor over the experiment's latency stream.

    "a sensor specific to optimization may provide an estimator of the
    response-time to client requests" (§4.2).  Each period it consumes the
    latencies recorded since the previous sample, maintains a moving
    average, and pushes a :class:`LatencyReading`.  Silent periods (no
    completions) emit nothing — the controlled quantity is undefined.
    """

    def __init__(
        self,
        kernel: SimKernel,
        latency_series,
        window_s: float = 60.0,
        period_s: float = 1.0,
    ) -> None:
        self.kernel = kernel
        self.series = latency_series  # a metrics TimeSeries of latencies
        self.window = MovingAverage(window_s)
        self.period_s = period_s
        self._cursor = 0
        self._listeners: tuple[Callable[[LatencyReading], None], ...] = ()
        self._task: Optional[PeriodicTask] = None

    def subscribe(self, listener: Callable[[LatencyReading], None]) -> None:
        self._listeners += (listener,)

    def on_start(self, component=None) -> None:
        if self._task is None:
            self._task = self.kernel.every(self.period_s, self._sample)

    def on_stop(self, component=None) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _sample(self) -> None:
        fresh = self.series.tail_since(self._cursor)
        self._cursor += len(fresh)
        for t, v in fresh:
            self.window.add(t, v)
        new = [v for _, v in fresh]
        # Age the window even when no sample arrived.
        smoothed = self.window.age(self.kernel.now)
        if smoothed != smoothed:  # NaN: nothing in the window
            return
        raw = left_sum(new) / len(new) if new else smoothed
        reading = LatencyReading(self.kernel.now, smoothed, raw, len(new))
        for listener in self._listeners:
            listener(reading)
