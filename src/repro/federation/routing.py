"""Global load balancing: routed demand + the weight policy.

:class:`RoutedProfile` is the demand-side half of the cross-region
channel: it wraps a region's base :class:`WorkloadProfile` and exposes
the same ``clients_at`` interface the client emulator polls, scaled by
a routing ``weight`` and offset by ``spill_clients`` redirected from
evacuated regions.  Both knobs change **only** at epoch barriers (the
coordinator applies :class:`~repro.federation.messages.WeightUpdate`
between ``advance`` calls), so within an epoch a region's workload is a
pure function of its config — the invariant that makes serial and
parallel federation byte-identical.

:class:`GlobalLoadBalancer` is the policy: a pure, deterministic
function from one epoch's sorted :class:`RegionReport` set to the next
epoch's :class:`WeightUpdate` set.  Healthy regions get weights
proportional to a capacity/latency score (EWMA-smoothed, clamped);
evacuated regions get weight 0 and their projected base demand is
spilled to the survivors by largest-remainder apportionment.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.federation.messages import RegionReport, WeightUpdate
from repro.metrics.aggregates import left_sum
from repro.workload.profiles import WorkloadProfile


class RoutedProfile(WorkloadProfile):
    """A base demand curve scaled by the global LB's routing decisions."""

    def __init__(self, base: WorkloadProfile) -> None:
        self.base = base
        self.weight = 1.0
        self.spill_clients = 0

    def apply(self, update: WeightUpdate) -> None:
        self.weight = update.weight
        self.spill_clients = update.spill_clients

    def clients_at(self, t: float) -> int:
        if self.weight <= 0.0:
            return 0
        demand = int(round(self.base.clients_at(t) * self.weight))
        return demand + self.spill_clients

    @property
    def duration_s(self) -> float:
        return self.base.duration_s

    def peak(self) -> int:
        return self.base.peak()


class GlobalLoadBalancer:
    """Weighted routing on per-region latency/capacity reports.

    ``route`` is called once per epoch barrier with every region's
    report and returns one :class:`WeightUpdate` per region, effective
    next epoch.  All state (weight EWMAs, the evacuated set) lives here
    in the coordinator — regions never see each other directly.
    """

    def __init__(
        self,
        regions: Sequence[str],
        adaptive: bool = True,
        min_weight: float = 0.5,
        max_weight: float = 1.5,
        gain: float = 0.5,
        latency_floor_s: float = 0.05,
        evacuate_at_s: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.regions = sorted(regions)
        self.adaptive = adaptive
        self.min_weight = min_weight
        self.max_weight = max_weight
        self.gain = gain
        self.latency_floor_s = latency_floor_s
        self.evacuate_at_s = dict(evacuate_at_s or {})
        self.weights = {name: 1.0 for name in self.regions}
        self.evacuated: set[str] = set()
        self.updates_issued = 0

    # ------------------------------------------------------------------
    def _score(self, report: RegionReport) -> float:
        """Capacity per unit latency: more replicas and headroom raise a
        region's share, observed slowness lowers it."""
        capacity = (
            report.app_replicas + report.db_replicas + 0.5 * report.free_nodes
        )
        latency = max(report.latency_p95_s, self.latency_floor_s)
        return capacity / latency

    def _projected_demand(
        self, base_profiles: Mapping[str, WorkloadProfile], name: str, t: float
    ) -> int:
        profile = base_profiles.get(name)
        return profile.clients_at(t) if profile is not None else 0

    # ------------------------------------------------------------------
    def route(
        self,
        epoch: int,
        reports: Mapping[str, RegionReport],
        base_profiles: Mapping[str, WorkloadProfile],
        next_epoch_mid_t: float,
    ) -> list[WeightUpdate]:
        """One epoch's routing decision (pure given the inputs).

        ``base_profiles`` supplies each region's unrouted demand curve so
        an evacuated region's load can be projected (at the midpoint of
        the next epoch) and spilled to the survivors.
        """
        for name in self.regions:
            deadline = self.evacuate_at_s.get(name)
            report = reports.get(name)
            if deadline is not None and next_epoch_mid_t >= deadline:
                self.evacuated.add(name)
            if report is not None and not report.available:
                self.evacuated.add(name)

        live = [name for name in self.regions if name not in self.evacuated]
        updates: list[WeightUpdate] = []

        # --- healthy regions: adaptive weights around 1.0 --------------
        scores = {
            name: self._score(reports[name])
            for name in live
            if name in reports
        }
        mean_score = (
            left_sum(scores.values()) / len(scores) if scores else 0.0
        )
        for name in live:
            if self.adaptive and mean_score > 0.0 and name in scores:
                target = scores[name] / mean_score
                target = min(self.max_weight, max(self.min_weight, target))
                smoothed = (
                    (1.0 - self.gain) * self.weights[name]
                    + self.gain * target
                )
            else:
                smoothed = 1.0
            self.weights[name] = smoothed

        # --- spill: evacuated demand apportioned to survivors ----------
        spilled_total = sum(
            self._projected_demand(base_profiles, name, next_epoch_mid_t)
            for name in sorted(self.evacuated)
        )
        spill = {name: 0 for name in live}
        if spilled_total > 0 and live:
            score_sum = left_sum(scores.get(name, 1.0) for name in live)
            shares = []
            for name in live:  # largest-remainder apportionment
                share = scores.get(name, 1.0) / score_sum * spilled_total
                shares.append((name, int(share), share - int(share)))
            assigned = sum(floor for _, floor, _ in shares)
            remainder = spilled_total - assigned
            for name, floor, _ in sorted(
                shares, key=lambda s: (-s[2], s[0])
            )[:remainder]:
                spill[name] = 1
            for name, floor, _ in shares:
                spill[name] += floor

        for name in self.regions:
            if name in self.evacuated:
                updates.append(
                    WeightUpdate(
                        epoch + 1, name, 0.0, 0, reason="evacuation"
                    )
                )
            else:
                updates.append(
                    WeightUpdate(
                        epoch + 1,
                        name,
                        self.weights[name],
                        spill.get(name, 0),
                    )
                )
        self.updates_issued += len(updates)
        return updates
