"""The self-recovery manager (Fig. 3; repair algorithm after Bouchenak et
al., SRDS 2005).

A heartbeat sensor watches every replica of the managed tiers; when one
fails (its node crashed or its process died), the repair reactor asks the
tier's actuator to repair: clean the architecture, allocate a fresh node,
redeploy the software and re-integrate the replica — for a database replica
this includes recovery-log synchronization, so the repaired replica comes
back with consistent state.  The phi-accrual detector of
:mod:`repro.chaos.detectors` may feed the same repair path.

Repairs that cannot run immediately (tier busy, no free node, arbitration
denial) stay queued and are retried every ``RETRY_PERIOD_S``.  The manager
is the ``recovery`` composite of the manager ADL
(:func:`repro.jade.self_optimization.manager_adl`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.fractal.component import Component
from repro.jade.actuators import TierManager
from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import PeriodicTask, SimKernel

#: seconds between retries of the queued repairs
RETRY_PERIOD_S = 5.0


def recovery_metrics(collector: MetricsCollector, crash_t: float) -> dict:
    """Detection latency, MTTR and availability of a single-crash run at
    ``crash_t``, extracted from the collector's reconfiguration log.

    Detection is the first "detected failure" entry at or after the crash;
    repair is the first later entry of a grow that left a replica active.
    A latency with no matching entry is NaN.
    """
    detect_t = repaired_t = None
    for t, desc in collector.reconfigurations:
        if detect_t is None and t >= crash_t and "detected failure" in desc:
            detect_t = t
        if repaired_t is None and t > crash_t and "grow:" in desc and "active" in desc:
            repaired_t = t
    completed = collector.completed_requests
    attempted = completed + collector.failed_requests
    return {
        "crash_at_s": crash_t,
        "detect_latency_s": (
            detect_t - crash_t if detect_t is not None else float("nan")
        ),
        "mttr_s": (
            repaired_t - crash_t if repaired_t is not None else float("nan")
        ),
        # NaN (not 1.0) when no request got through — same convention as
        # the chaos scorecard: a total outage is not perfect availability.
        "availability": completed / attempted if attempted else float("nan"),
    }


def all_servers(tiers: list[TierManager]) -> Iterator[object]:
    """The serving servers of every tier (what the detectors watch)."""
    for tier in tiers:
        yield from tier.servers()


def member_servers(tiers: list[TierManager]) -> Iterator[object]:
    """The servers of every replica, under maintenance or not."""
    for tier in tiers:
        for record in tier.replicas:
            server = getattr(record.component.content, "server", None)
            if server is not None:
                yield server


class RepairReactor:
    """Repair decisions across a set of managed tiers: failures arrive on
    the ``failures`` interface (heartbeat) and ``suspicions`` (detector)."""

    def __init__(
        self,
        kernel: SimKernel,
        tiers: list[TierManager],
        collector: Optional[MetricsCollector] = None,
    ) -> None:
        self.kernel = kernel
        self.tiers = list(tiers)
        self.collector = collector
        self._pending: list[tuple[TierManager, Component]] = []
        self._retry_task: Optional[PeriodicTask] = None
        self.failures_seen = 0
        self.repairs_started = 0
        #: the heartbeat sensor and the optional progress-based detector
        #: feeding this reactor (set when the manager is wired)
        self.sensor = None
        self.detector = None
        #: plain-data detection log: {"t", "component", "tier", "reason"}
        self.detections: list[dict] = []
        #: optional decision tracer (set by the assembled system)
        self.tracer = None

    # -- life cycle (driven by the reactor component) ---------------------
    def on_start(self, component=None) -> None:
        if self._retry_task is None:
            self._retry_task = self.kernel.every(RETRY_PERIOD_S, self._retry)

    def on_stop(self, component=None) -> None:
        if self._retry_task is not None:
            self._retry_task.cancel()
            self._retry_task = None

    # ------------------------------------------------------------------
    def _tier_of(self, server: object) -> Optional[tuple[TierManager, Component]]:
        for tier in self.tiers:
            for record in tier.replicas:
                if getattr(record.component.content, "server", None) is server:
                    return tier, record.component
        return None

    def on_failure(self, server: object) -> None:
        self._handle_failure(server, "heartbeat")

    def on_suspicion(self, server: object, phi: float, reason: str) -> None:
        self._handle_failure(server, f"detector:{reason}")

    def handle_interruption(self, server: object) -> None:
        """Drain path for spot interruption notices (:mod:`repro.market`):
        the market warns that the server's node will be reclaimed, so the
        replica is repaired *now* — unbound, discarded and regrown on a
        fresh node — instead of waiting for the crash at the deadline."""
        self._handle_failure(server, "spot-notice")

    def _handle_failure(self, server: object, reason: str) -> None:
        located = self._tier_of(server)
        if located is None:
            return  # already repaired or not ours
        tier, component = located
        self.failures_seen += 1
        self.detections.append(
            {
                "t": self.kernel.now,
                "component": component.name,
                "tier": tier.tier_name,
                "reason": reason,
            }
        )
        if self.collector is not None:
            suffix = "" if reason == "heartbeat" else f" ({reason})"
            self.collector.record_reconfiguration(
                self.kernel.now,
                f"[recovery] detected failure of {component.name}{suffix}",
            )
        if self.tracer is not None:
            from repro.obs.events import NodeFailed

            node = getattr(server, "node", None)
            seq = self.tracer.emit(
                NodeFailed(
                    self.kernel.now,
                    node=node.name if node is not None else "",
                    owner=f"tier:{tier.tier_name}",
                    reason=reason,
                )
            )
            self.tracer.push_cause(seq)
            try:
                repaired = tier.repair(component)
            finally:
                self.tracer.pop_cause()
        else:
            repaired = tier.repair(component)
        if repaired:
            self.repairs_started += 1
        else:
            self._pending.append((tier, component))

    def _retry(self) -> None:
        still_pending: list[tuple[TierManager, Component]] = []
        for tier, component in self._pending:
            # The replica may have been cleaned up already (repair() removes
            # it from the tier) — grow back if the tier is short-handed.
            listed = any(r.component is component for r in tier.replicas)
            if tier.repair(component) if listed else tier.grow():
                self.repairs_started += 1
            else:
                still_pending.append((tier, component))
        self._pending = still_pending

    @property
    def pending_repairs(self) -> int:
        return len(self._pending)
