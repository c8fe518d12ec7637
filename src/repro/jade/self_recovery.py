"""The self-recovery manager (Fig. 3; repair algorithm after Bouchenak et
al., SRDS 2005).

A heartbeat sensor watches every replica of the managed tiers; when one
fails (its node crashed or its process died), the repair reactor asks the
tier's actuator to repair: clean the architecture, allocate a fresh node,
redeploy the software and re-integrate the replica — for a database replica
this includes recovery-log synchronization, so the repaired replica comes
back with consistent state.

Repairs that cannot run immediately (tier busy, no free node, arbitration
denial) stay queued and are retried every ``retry_period_s``.
"""

from __future__ import annotations

from typing import Optional

from repro.fractal.component import Component
from repro.jade.actuators import TierManager
from repro.jade.sensors import HeartbeatSensor
from repro.metrics.collector import MetricsCollector
from repro.simulation.kernel import PeriodicTask, SimKernel


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


class SelfRecoveryManager:
    """Failure detection + repair across a set of managed tiers."""

    name = "recovery"

    def __init__(
        self,
        kernel: SimKernel,
        tiers: list[TierManager],
        collector: Optional[MetricsCollector] = None,
        detect_period_s: float = 1.0,
        retry_period_s: float = 5.0,
    ) -> None:
        self.kernel = kernel
        self.tiers = list(tiers)
        self.collector = collector
        self.retry_period_s = retry_period_s
        self.sensor = HeartbeatSensor(
            kernel,
            self._all_servers,
            period_s=detect_period_s,
            members_provider=self._member_servers,
        )
        self.sensor.subscribe(self._on_failure)
        self._pending: list[tuple[TierManager, Component]] = []
        self._retry_task: Optional[PeriodicTask] = None
        self.failures_seen = 0
        self.repairs_started = 0
        #: optional progress-based detector (see ``attach_detector``)
        self.detector = None
        #: plain-data detection log: {"t", "component", "tier", "reason"}
        self.detections: list[dict] = []
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        # The manager is itself a component (Jade administrates itself).
        self.composite = Component("self-recovery-manager", composite=True)
        self.composite.content_controller.add(
            Component("recovery-sensor", content=self.sensor)
        )

    # ------------------------------------------------------------------
    def _all_servers(self):
        for tier in self.tiers:
            yield from tier.servers()

    def _member_servers(self):
        """The servers of every replica, under maintenance or not."""
        for tier in self.tiers:
            for record in tier.replicas:
                server = getattr(record.component.content, "server", None)
                if server is not None:
                    yield server

    def _tier_of(self, server: object) -> Optional[tuple[TierManager, Component]]:
        for tier in self.tiers:
            for record in tier.replicas:
                if getattr(record.component.content, "server", None) is server:
                    return tier, record.component
        return None

    # ------------------------------------------------------------------
    def attach_detector(self, detector) -> None:
        """Add a progress-based failure detector (e.g. the phi-accrual
        detector of :mod:`repro.chaos.detectors`) whose suspicions feed
        the same repair path as heartbeat failures.  The detector is
        started/stopped with the manager and administrated as a
        sub-component, like the heartbeat sensor."""
        self.detector = detector
        detector.subscribe(self._on_suspicion)
        self.composite.content_controller.add(
            Component("recovery-detector", content=detector)
        )

    def _on_failure(self, server: object) -> None:
        self._handle_failure(server, "heartbeat")

    def handle_interruption(self, server: object) -> None:
        """Drain path for spot interruption notices (:mod:`repro.market`):
        the market warns that the server's node will be reclaimed, so the
        replica is repaired *now* — unbound, discarded and regrown on a
        fresh node — instead of waiting for the crash at the deadline."""
        self._handle_failure(server, "spot-notice")

    def _on_suspicion(self, server: object, phi: float, reason: str) -> None:
        self._handle_failure(server, f"detector:{reason}")

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
            if any(r.component is component for r in tier.replicas):
                if not tier.repair(component):
                    still_pending.append((tier, component))
                else:
                    self.repairs_started += 1
            else:
                if not tier.grow():
                    still_pending.append((tier, component))
                else:
                    self.repairs_started += 1
        self._pending = still_pending

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.composite.start()
        self.sensor.on_start()
        if self.detector is not None:
            self.detector.on_start()
        if self._retry_task is None:
            self._retry_task = self.kernel.every(self.retry_period_s, self._retry)

    def stop(self) -> None:
        self.sensor.on_stop()
        if self.detector is not None:
            self.detector.on_stop()
        self.composite.stop()
        if self._retry_task is not None:
            self._retry_task.cancel()
            self._retry_task = None

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer
        if self.detector is not None:
            self.detector.tracer = tracer

    def distill(self) -> None:
        return None  # the chaos injector distills the detection log

    @property
    def pending_repairs(self) -> int:
        return len(self._pending)
