"""Typed trace events.

The paper's argument (§3.4, §5.2) is that autonomic decisions flow through
a uniform, introspectable component architecture: probe readings cross
thresholds, reactors decide, the inhibition lock arbitrates, actuators
reconfigure, the cluster manager moves nodes.  Each of those steps has a
typed, timestamped event here, so a Fig. 5 replica-count staircase can be
explained after the fact ("the DB tier grew at t=410 s because reading X
crossed 0.75; the shrink at t=610 s was suppressed: inhibited").

Every event is an immutable dataclass with a ``kind`` tag and an optional
``cause`` — the sequence number of the event that led to it.  Causality is
a chain: ``ReconfigCompleted.cause`` → ``ReconfigStarted.cause`` →
``Decision`` — which is what the ``repro trace`` timeline renders and the
integration tests assert.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional


@dataclass(frozen=True)
class TraceEvent:
    """Base record: simulated time plus an optional causal parent."""

    kind: ClassVar[str] = "event"

    t: float
    cause: Optional[int] = field(default=None, kw_only=True)

    def to_record(self) -> dict:
        """Flat dict for the JSONL sink (``kind`` included, ``cause`` only
        when set — keeps lines compact)."""
        record = {"kind": self.kind, **asdict(self)}
        if record.get("cause") is None:
            record.pop("cause", None)
        return record


@dataclass(frozen=True)
class ProbeReading(TraceEvent):
    """One sensor notification that reached the reactors."""

    kind: ClassVar[str] = "probe-reading"

    probe: str
    smoothed: float
    raw: float
    nodes: int


@dataclass(frozen=True)
class Decision(TraceEvent):
    """A reactor's verdict on one reading.

    ``executed`` means the actuation was started; a suppressed decision
    names why in ``reason`` (one of
    :attr:`repro.policy.api.DecisionReason.SUPPRESSIONS`).
    An executed decision that the actuator then rejects is followed by a
    second, suppressed :class:`Decision` with ``reason='actuator-busy'``
    and ``cause`` pointing at the retracted one.
    """

    kind: ClassVar[str] = "decision"

    source: str        # reactor/loop name (e.g. "resize-db")
    action: str        # DecisionAction
    executed: bool
    reason: str        # DecisionReason
    smoothed: float
    replicas: int


@dataclass(frozen=True)
class PolicyDecided(TraceEvent):
    """A policy plugin ruled on one set of control-loop inputs
    (``repro.policy``).  Emitted for every non-hold verdict before the
    mechanics (inhibition, caps, the actuator) weigh in; the
    :class:`Decision` that follows records what actually happened to the
    verdict.  ``inputs_digest`` is a
    short fingerprint of the exact :class:`~repro.policy.api.PolicyInputs`
    snapshot, so identical situations are identifiable across runs
    without logging every field."""

    kind: ClassVar[str] = "policy-decided"

    source: str        # reactor/loop name (e.g. "resize-db")
    policy: str        # policy registry name (e.g. "queue-model")
    action: str        # DecisionAction
    reason: str        # DecisionReason
    inputs_digest: str


@dataclass(frozen=True)
class InhibitionAcquired(TraceEvent):
    kind: ClassVar[str] = "inhibition-acquired"

    by: str
    until: float


@dataclass(frozen=True)
class InhibitionRejected(TraceEvent):
    kind: ClassVar[str] = "inhibition-rejected"

    by: str
    free_at: float


@dataclass(frozen=True)
class ReconfigStarted(TraceEvent):
    kind: ClassVar[str] = "reconfig-started"

    tier: str
    operation: str     # "grow" | "shrink" | "repair"
    replicas: int      # count when the operation started


@dataclass(frozen=True)
class ReconfigCompleted(TraceEvent):
    kind: ClassVar[str] = "reconfig-completed"

    tier: str
    operation: str
    duration_s: float
    replica_delta: int
    replicas: int      # count after the operation
    ok: bool = True
    error: str = ""


@dataclass(frozen=True)
class NodeAllocated(TraceEvent):
    kind: ClassVar[str] = "node-allocated"

    node: str
    owner: str


@dataclass(frozen=True)
class NodeReleased(TraceEvent):
    kind: ClassVar[str] = "node-released"

    node: str
    owner: str


@dataclass(frozen=True)
class NodeFailed(TraceEvent):
    """A node could not be obtained or was lost (allocation failure,
    crash detected by the heartbeat sensor, discard during repair)."""

    kind: ClassVar[str] = "node-failed"

    node: str          # "" when no node could be allocated at all
    owner: str
    reason: str        # "no-free-node" | "crashed" | ...


@dataclass(frozen=True)
class ForecastIssued(TraceEvent):
    """A capacity forecaster extrapolated the load over a horizon."""

    kind: ClassVar[str] = "forecast-issued"

    source: str        # manager name (e.g. "proactive")
    model: str         # forecaster registry name ("ewma"/"trend"/"seasonal")
    horizon_s: float
    current: float     # last observed load
    predicted_peak: float


@dataclass(frozen=True)
class WhatIfEvaluated(TraceEvent):
    """The what-if engine compared candidate configurations on forked
    branch simulations (``cause`` links back to the forecast)."""

    kind: ClassVar[str] = "whatif-evaluated"

    source: str
    candidates: int
    horizon_s: float
    best: str          # winning candidate label (e.g. "app2/db3")
    best_cost: float
    infeasible: int    # candidates the node pool could not host


@dataclass(frozen=True)
class ProactiveDecision(TraceEvent):
    """A proactive grow/shrink proposal (``cause`` links back to the
    what-if evaluation or forecast that motivated it)."""

    kind: ClassVar[str] = "proactive-decision"

    source: str
    tier: str
    action: str        # DecisionAction
    executed: bool
    reason: str        # DecisionReason (predicted-* or a suppression)
    predicted: float   # predicted peak load driving the decision
    replicas: int


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The chaos injector applied one fault (``repro.chaos``)."""

    kind: ClassVar[str] = "fault-injected"

    fault: str         # "crash" | "slow" | "gray" | "partition" | ...
    target: str        # node name(s), or "lan" for network-wide faults
    tier: str = ""     # owning tier when the victim is a replica node
    detail: str = ""   # e.g. "factor=0.02 for 120s"


@dataclass(frozen=True)
class FaultCleared(TraceEvent):
    """A transient fault's duration elapsed and its effect was undone."""

    kind: ClassVar[str] = "fault-cleared"

    fault: str
    target: str


@dataclass(frozen=True)
class DetectorSuspected(TraceEvent):
    """The phi-accrual detector flagged a server as failed while the
    legacy liveness checks (``running``/``node.up``) still pass."""

    kind: ClassVar[str] = "detector-suspected"

    detector: str
    server: str
    node: str
    phi: float
    reason: str        # "phi" (stalled progress) | "fail-fast"


@dataclass(frozen=True)
class DeployStarted(TraceEvent):
    """The deploy manager began bouncing a tier to a new server version
    (``repro.deploy``)."""

    kind: ClassVar[str] = "deploy-started"

    scenario: str
    version: str       # new version label
    strategy: str      # "brutal" | "upthendown" | "crossover" | "downthenup"
    tier: str
    replicas: int      # fleet size when the deployment started


@dataclass(frozen=True)
class CanaryVerdict(TraceEvent):
    """The canary controller compared the canary cohort against the
    stable fleet over the decision window and ruled."""

    kind: ClassVar[str] = "canary-verdict"

    scenario: str
    version: str
    promoted: bool
    reason: str              # "slo-ok" | "error-delta" | "latency-factor" | ...
    canary_error_rate: float
    stable_error_rate: float
    canary_latency_s: float
    stable_latency_s: float


@dataclass(frozen=True)
class RollbackTriggered(TraceEvent):
    """A failed canary verdict triggered the automatic rollback to the
    stable version (``cause`` links back to the verdict)."""

    kind: ClassVar[str] = "rollback-triggered"

    scenario: str
    version: str       # the version being rolled back
    reason: str


@dataclass(frozen=True)
class MarketPriceTick(TraceEvent):
    """The spot market re-priced one instance type (``repro.market``)."""

    kind: ClassVar[str] = "market-price-tick"

    instance_type: str
    price: float       # hourly spot price, cost-model units


@dataclass(frozen=True)
class InterruptionNotice(TraceEvent):
    """The market warned that a spot node will be reclaimed at
    ``deadline`` — the fleet has the notice window to drain it."""

    kind: ClassVar[str] = "interruption-notice"

    node: str
    instance_type: str
    deadline: float    # absolute simulated time of the reclaim
    price: float       # spot price when the notice was issued
    source: str = "market"   # "market" (hazard draw) | "chaos" (campaign)


@dataclass(frozen=True)
class FleetRebalanced(TraceEvent):
    """The fleet allocator changed the provisioned mix (``cause`` links
    back to the forecast or interruption that motivated it)."""

    kind: ClassVar[str] = "fleet-rebalanced"

    action: str        # "initial" | "provision" | "retire"
    detail: str        # e.g. "2x std.small@spot"
    target_vcpus: float
    od_vcpus: float    # on-demand effective vCPUs after the change
    spot_vcpus: float  # spot effective vCPUs after the change


@dataclass(frozen=True)
class EpochRouted(TraceEvent):
    """The federation coordinator retargeted one region's demand at an
    epoch barrier (``repro.federation``): weight scaling plus any spill
    redirected from evacuated regions."""

    kind: ClassVar[str] = "epoch-routed"

    region: str
    epoch: int
    weight: float
    spill_clients: int
    reason: str        # "routing" | "evacuation"


@dataclass(frozen=True)
class KernelStats(TraceEvent):
    """Event-loop counters, emitted once at the end of a traced run."""

    kind: ClassVar[str] = "kernel-stats"

    events_processed: int
    tombstones_skipped: int
    pending: int


#: kind string → event class (used by the timeline renderer for display).
EVENT_KINDS = {
    cls.kind: cls
    for cls in (
        ProbeReading,
        PolicyDecided,
        Decision,
        InhibitionAcquired,
        InhibitionRejected,
        ReconfigStarted,
        ReconfigCompleted,
        NodeAllocated,
        NodeReleased,
        NodeFailed,
        FaultInjected,
        FaultCleared,
        DetectorSuspected,
        DeployStarted,
        CanaryVerdict,
        RollbackTriggered,
        ForecastIssued,
        WhatIfEvaluated,
        ProactiveDecision,
        MarketPriceTick,
        InterruptionNotice,
        FleetRebalanced,
        EpochRouted,
        KernelStats,
    )
}
