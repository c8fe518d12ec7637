"""Fault-model library.

A :class:`FaultSpec` is a frozen, picklable description of one fault — a
pure value described field by field, so campaigns containing them flow
through ``describe_config`` and the process-pool runner unchanged.  The
:class:`ChaosInjector` interprets specs against a live
:class:`~repro.jade.system.ManagedSystem`:

========== =============================================================
kind       effect
========== =============================================================
crash      fail-stop: ``node.crash()`` (the classic scenario)
slow       fail-slow: CPU degraded to ``severity`` of nominal speed for
           ``duration_s`` (heartbeats keep passing)
gray       like ``slow`` but with a crawl-level factor: the node answers
           every liveness check while serving essentially nothing
partition  the victim node is network-isolated (``node.isolate()``, LAN
           partition recorded); in-flight work is lost, heartbeats pass
latency    LAN-wide: ``severity`` seconds added to every message delay
correlated one rack dies: every replica node in the victim's rack group
           (``index % campaign.racks``) crashes together
poisson    a crash stream with exponential inter-arrivals (``mtbf_s``)
           over the target tier, starting at ``at_s``
spot-      a spot-market reclaim (``repro.market``): the victim node gets
interrupt. an interruption notice; its replicas are drained through the
           recovery manager immediately (repair now, on a fresh node)
           and the node is crashed when the ``duration_s`` notice
           expires.  Victims on spot-bought nodes are preferred; on a
           uniform pool any replica node stands in.
========== =============================================================

Victims are chosen at fire time (``pick`` = newest/oldest/random replica
of the ``target`` tier) from the injector's dedicated seeded RNG stream,
so a campaign is deterministic per seed yet composes with whatever the
managers did in the meantime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simulation.kernel import Event

KINDS = (
    "crash",
    "slow",
    "gray",
    "partition",
    "latency",
    "correlated",
    "poisson",
    "spot-interruption",
)
TARGETS = ("app", "db", "any")
PICKS = ("newest", "oldest", "random")

#: fault kinds that disable a replica and should end in a repair
DISRUPTIVE = (
    "crash",
    "slow",
    "gray",
    "partition",
    "correlated",
    "spot-interruption",
)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault (see the module table for semantics)."""

    kind: str
    at_s: float = 0.0
    #: transient faults (slow/gray/partition/latency) clear after this;
    #: 0 means the fault is permanent (or instantaneous, for crashes)
    duration_s: float = 0.0
    #: slow/gray: delivered fraction of CPU speed; latency: added seconds
    severity: float = 1.0
    target: str = "db"
    pick: str = "newest"
    #: poisson only: mean time between crashes
    mtbf_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.pick not in PICKS:
            raise ValueError(f"unknown pick {self.pick!r}")
        if self.at_s < 0 or self.duration_s < 0:
            raise ValueError("fault times must be >= 0")
        if self.severity <= 0 and self.kind in ("slow", "gray"):
            raise ValueError("degradation severity must be positive")
        if self.kind == "latency" and self.severity < 0:
            raise ValueError("added latency must be >= 0")
        if self.kind == "poisson" and self.mtbf_s <= 0:
            raise ValueError("poisson faults need mtbf_s > 0")


# ----------------------------------------------------------------------
# Spec constructors (readable campaign definitions)
# ----------------------------------------------------------------------
def crash(at_s: float, target: str = "db", pick: str = "newest") -> FaultSpec:
    return FaultSpec("crash", at_s=at_s, target=target, pick=pick)


def fail_slow(
    at_s: float,
    duration_s: float,
    factor: float = 0.25,
    target: str = "db",
    pick: str = "newest",
) -> FaultSpec:
    return FaultSpec(
        "slow", at_s=at_s, duration_s=duration_s, severity=factor,
        target=target, pick=pick,
    )


def gray(
    at_s: float,
    duration_s: float,
    factor: float = 0.005,
    target: str = "db",
    pick: str = "newest",
) -> FaultSpec:
    return FaultSpec(
        "gray", at_s=at_s, duration_s=duration_s, severity=factor,
        target=target, pick=pick,
    )


def partition(
    at_s: float, duration_s: float, target: str = "app", pick: str = "newest"
) -> FaultSpec:
    return FaultSpec(
        "partition", at_s=at_s, duration_s=duration_s, target=target, pick=pick
    )


def extra_latency(at_s: float, duration_s: float, extra_s: float) -> FaultSpec:
    return FaultSpec(
        "latency", at_s=at_s, duration_s=duration_s, severity=extra_s
    )


def correlated(at_s: float, target: str = "any", pick: str = "random") -> FaultSpec:
    return FaultSpec("correlated", at_s=at_s, target=target, pick=pick)


def poisson(mtbf_s: float, at_s: float = 0.0, target: str = "any") -> FaultSpec:
    return FaultSpec("poisson", at_s=at_s, target=target, mtbf_s=mtbf_s)


def spot_interruption(
    at_s: float,
    notice_s: float = 120.0,
    target: str = "db",
    pick: str = "newest",
) -> FaultSpec:
    """A spot reclaim with the cloud's classic 2-minute notice
    (``duration_s`` holds the notice window)."""
    return FaultSpec(
        "spot-interruption", at_s=at_s, duration_s=notice_s,
        target=target, pick=pick,
    )


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosStats:
    """Plain-data distillate of a chaos campaign execution: the fault
    log from the injector plus the recovery manager's detection log —
    everything :mod:`repro.chaos.scorecard` reads."""

    campaign: str
    detector: str
    faults_injected: int
    events: list
    detections: list
    failures_seen: int
    repairs_started: int
    pending_repairs: int
    detector_suspicions: int

    def log_lines(self) -> list[str]:
        """The ``repro chaos --events`` log: each fault, then each
        detection."""
        lines = []
        for event in self.events:
            where = event["node"] or "lan"
            detail = f" {event['detail']}" if event["detail"] else ""
            lines.append(
                f"  t={event['t']:7.1f}s  inject {event['fault']} on "
                f"{where}{detail}"
            )
        return lines + [
            f"  t={det['t']:7.1f}s  detect {det['component']} "
            f"[{det['tier']}] via {det['reason']}"
            for det in self.detections
        ]


class ChaosInjector:
    """Applies a :class:`~repro.chaos.campaign.ChaosCampaign` to a live
    system.

    Every applied fault is recorded three ways: a plain-data entry in
    :attr:`events` (what :class:`ChaosStats` carries across process
    boundaries), a ``[chaos] ...`` line in the metrics collector's
    reconfiguration log, and — when tracing is on — a
    :class:`~repro.obs.events.FaultInjected` trace event.
    """

    name = "chaos"

    def __init__(self, system, campaign, rng) -> None:
        self.system = system
        self.kernel = system.kernel
        self.campaign = campaign
        self.rng = rng
        self.collector = system.collector
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        self.faults_injected = 0
        #: plain-data fault log: {"t", "fault", "node", "tier", "detail"}
        self.events: list[dict] = []
        #: injections and spot reclaims still pending, for :meth:`stop`
        self._scheduled: list[Event] = []
        self._active_isolations = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for spec in self.campaign.faults:
            if spec.kind == "poisson":
                self._arm_poisson(spec)
            else:
                self._keep(self.kernel.schedule_at(spec.at_s, self._fire, spec))

    def stop(self) -> None:
        """Cancel every pending injection and spot reclaim (a reclaim is a
        crash).  The clearances of faults already injected still run, so
        a transient fault ends on time in a stopped system too."""
        for event in self._scheduled:
            event.cancel()
        self._scheduled.clear()

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer

    def distill(self) -> ChaosStats:
        recovery = self.system.recovery
        detector = recovery.detector if recovery is not None else None
        return ChaosStats(
            campaign=self.campaign.name,
            detector=self.campaign.detector,
            faults_injected=self.faults_injected,
            events=list(self.events),
            detections=list(recovery.detections) if recovery is not None else [],
            failures_seen=recovery.failures_seen if recovery is not None else 0,
            repairs_started=recovery.repairs_started if recovery is not None else 0,
            pending_repairs=recovery.pending_repairs if recovery is not None else 0,
            detector_suspicions=detector.suspicions if detector is not None else 0,
        )

    # ------------------------------------------------------------------
    def _candidates(self, target: str) -> list[tuple]:
        tiers = {
            "app": [self.system.app_tier],
            "db": [self.system.db_tier],
            "any": [self.system.app_tier, self.system.db_tier],
        }[target]
        out = []
        for tier in tiers:
            for record in tier.replicas:
                if record.node.up and not record.node.isolated:
                    out.append((tier.tier_name, record))
        return out

    def _pick(self, spec: FaultSpec, candidates: list[tuple]) -> tuple:
        if spec.pick == "newest":
            return candidates[-1]
        if spec.pick == "oldest":
            return candidates[0]
        return candidates[int(self.rng.integers(len(candidates)))]

    def _record(
        self, fault: str, node: str, tier: str = "", detail: str = "",
        count: bool = True,
    ) -> None:
        t = self.kernel.now
        if count:
            self.faults_injected += 1
        self.events.append(
            {"t": t, "fault": fault, "node": node, "tier": tier, "detail": detail}
        )
        self.collector.record_reconfiguration(
            t, f"[chaos] {fault} {node or 'lan'}" + (f" ({detail})" if detail else "")
        )
        if self.tracer is not None:
            from repro.obs.events import FaultInjected

            self.tracer.emit(
                FaultInjected(t, fault=fault, target=node or "lan",
                              tier=tier, detail=detail)
            )

    def _cleared(self, fault: str, target: str) -> None:
        if self.tracer is not None:
            from repro.obs.events import FaultCleared

            self.tracer.emit(FaultCleared(self.kernel.now, fault=fault, target=target))

    def _keep(self, event: Event) -> None:
        """Track ``event`` for :meth:`stop`, dropping the tracked events
        that fired (a fired or cancelled event has released its callback)."""
        self._scheduled = [e for e in self._scheduled if e.fn is not None]
        self._scheduled.append(event)

    # ------------------------------------------------------------------
    def _fire(self, spec: FaultSpec) -> None:
        candidates = self._candidates(spec.target)
        if spec.kind == "latency":
            self._apply_latency(spec)
            return
        if spec.kind == "spot-interruption":
            # Prefer genuinely spot-bought victims (heterogeneous fleet);
            # on a uniform pool any replica node stands in for one.
            spot_candidates = [
                (tn, r)
                for tn, r in candidates
                if getattr(r.node, "market", "on-demand") == "spot"
            ]
            if spot_candidates:
                candidates = spot_candidates
        if not candidates:
            # Nothing eligible (tier empty / everything already faulted):
            # log the attempt so the scorecard can report it.
            self.events.append(
                {"t": self.kernel.now, "fault": spec.kind, "node": "",
                 "tier": "", "detail": "no-eligible-victim"}
            )
            return
        tier_name, record = self._pick(spec, candidates)
        node = record.node
        if spec.kind == "crash":
            self._record("crash", node.name, tier_name)
            node.crash()
        elif spec.kind in ("slow", "gray"):
            detail = f"factor={spec.severity:g}"
            if spec.duration_s > 0:
                detail += f" for {spec.duration_s:g}s"
            self._record(spec.kind, node.name, tier_name, detail)
            node.degrade(spec.severity)
            if spec.duration_s > 0:
                self.kernel.post_in(
                    spec.duration_s, self._restore_node, spec.kind, node
                )
        elif spec.kind == "partition":
            detail = f"for {spec.duration_s:g}s" if spec.duration_s > 0 else ""
            self._record("partition", node.name, tier_name, detail)
            others = [
                n for n in self.system.involved_nodes() if n is not node
            ]
            self.system.lan.partition([node], others)
            node.isolate()
            self._active_isolations += 1
            if spec.duration_s > 0:
                self.kernel.post_in(spec.duration_s, self._heal_node, node)
        elif spec.kind == "correlated":
            self._fire_correlated(spec, tier_name, record, candidates)
        elif spec.kind == "spot-interruption":
            self._fire_spot(spec, tier_name, record)

    def _fire_spot(self, spec: FaultSpec, tier_name: str, record) -> None:
        """Drain-then-crash: the disruption is recorded at notice time
        (that is when the replica leaves service); the reclaim itself is
        logged as non-disruptive so MTTR is not double-counted."""
        node = record.node
        self._record(
            "spot-interruption", node.name, tier_name,
            f"notice={spec.duration_s:g}s",
        )
        engine = getattr(self.system, "market", None)
        if engine is not None:
            # Heterogeneous fleet: the market engine owns the whole
            # notice/drain/reclaim sequence (and the provision ledger).
            engine.interrupt(node, source="chaos")
            return
        if self.tracer is not None:
            from repro.obs.events import InterruptionNotice

            self.tracer.emit(InterruptionNotice(
                self.kernel.now, node=node.name,
                instance_type=getattr(node.instance, "name", "") or "",
                deadline=self.kernel.now + spec.duration_s,
                price=0.0, source="chaos",
            ))
        recovery = getattr(self.system, "recovery", None)
        if recovery is not None:
            server = getattr(record.component.content, "server", None)
            if server is not None:
                recovery.handle_interruption(server)
        self._keep(self.kernel.schedule(spec.duration_s, self._reclaim_spot, node))

    def _reclaim_spot(self, node) -> None:
        # The notice at _fire_spot already counted this fault.
        self._record("spot-reclaim", node.name, count=False)
        if node.up:
            node.crash()
        self.system.cluster.discard(node)

    def _fire_correlated(self, spec, tier_name, record, candidates) -> None:
        racks = max(1, self.campaign.racks)
        rack_of = {
            n.name: i % racks for i, n in enumerate(self.system.nodes)
        }
        victim_rack = rack_of.get(record.node.name, 0)
        doomed = [
            (tn, r)
            for tn, r in candidates
            if rack_of.get(r.node.name, -1) == victim_rack
        ]
        for tn, r in doomed:
            self._record("correlated", r.node.name, tn, f"rack={victim_rack}")
            r.node.crash()

    def _apply_latency(self, spec: FaultSpec) -> None:
        detail = f"extra={spec.severity:g}s"
        if spec.duration_s > 0:
            detail += f" for {spec.duration_s:g}s"
        self._record("latency", "", "", detail)
        self.system.lan.set_extra_latency(spec.severity)
        if spec.duration_s > 0:
            self.kernel.post_in(spec.duration_s, self._restore_latency)

    # -- clearances ----------------------------------------------------
    def _restore_node(self, fault: str, node) -> None:
        if node.up:
            node.restore()
        self._cleared(fault, node.name)

    def _heal_node(self, node) -> None:
        node.heal()
        self._active_isolations -= 1
        if self._active_isolations <= 0:
            self.system.lan.heal()
        self._cleared("partition", node.name)

    def _restore_latency(self) -> None:
        self.system.lan.set_extra_latency(0.0)
        self._cleared("latency", "lan")

    # -- poisson stream ------------------------------------------------
    def _arm_poisson(self, spec: FaultSpec, first: Optional[bool] = True) -> None:
        delay = float(self.rng.exponential(spec.mtbf_s))
        at = (spec.at_s if first else self.kernel.now) + delay
        self._keep(self.kernel.schedule_at(at, self._fire_poisson, spec))

    def _fire_poisson(self, spec: FaultSpec) -> None:
        candidates = self._candidates(spec.target)
        if candidates:
            tier_name, record = candidates[int(self.rng.integers(len(candidates)))]
            self._record("crash", record.node.name, tier_name, "poisson")
            record.node.crash()
        self._arm_poisson(spec, first=False)
