"""Cost model for candidate configurations.

A candidate's score combines what a production operator actually pays:

* **node-hours** — hardware held over the evaluation horizon (the paper's
  resource-saving argument of §1, priced instead of merely counted);
* **reconfiguration cost** — each grow/shrink has a fixed operational
  price (the allocate+install+sync work, plus the risk window it opens);
* **SLO-violation cost** — every second the bucketed client latency sits
  above the SLO threshold costs; this is what a latency SLA bills.

Scores are linear so candidate comparisons are stable and explainable:
the what-if report shows each term, not just the total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.metrics.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.capacity.whatif import BranchOutcome


def slo_violation_time(
    latencies: TimeSeries,
    t0: float,
    t1: float,
    slo_latency_s: float,
    bucket_s: float = 5.0,
) -> float:
    """Seconds of ``[t0, t1)`` whose bucketed mean latency exceeds the SLO.

    Buckets with no completed request do not count: with a closed-loop
    emulator an empty bucket means clients are thinking, not suffering.
    """
    window = latencies.window(t0, t1)
    violating = sum(
        1 for _, v in window.bucket_mean(bucket_s) if v > slo_latency_s
    )
    return violating * bucket_s


def service_metrics(collector, duration_s: float, slo_latency_s: float) -> dict:
    """The service half of a scorecard row over ``[0, duration_s)``:
    SLO-violation seconds, goodput, availability and the request counts.
    Availability is NaN, not 1.0, when no request was attempted: "nobody
    got through" must not score as perfect availability (``mean_ci``
    drops NaNs and the renderers print n/a)."""
    completed = collector.completed_requests
    failed = collector.failed_requests
    attempted = completed + failed
    return {
        "slo_violation_s": slo_violation_time(
            collector.latencies, 0.0, duration_s, slo_latency_s
        ),
        "goodput_rps": collector.throughput(0.0, duration_s),
        "availability": completed / attempted if attempted else float("nan"),
        "failed_requests": failed,
        "completed_requests": completed,
    }


@dataclass(frozen=True)
class CostBreakdown:
    """One candidate's score, term by term."""

    node_hours: float
    node_cost: float
    reconfig_count: int
    reconfig_cost: float
    slo_violation_s: float
    slo_cost: float

    @property
    def total(self) -> float:
        return self.node_cost + self.reconfig_cost + self.slo_cost

    def to_record(self) -> dict:
        return {
            "node_hours": round(self.node_hours, 6),
            "node_cost": round(self.node_cost, 6),
            "reconfig_count": self.reconfig_count,
            "reconfig_cost": round(self.reconfig_cost, 6),
            "slo_violation_s": round(self.slo_violation_s, 6),
            "slo_cost": round(self.slo_cost, 6),
            "total": round(self.total, 6),
        }


@dataclass(frozen=True)
class CostModel:
    """Linear pricing of a branch outcome."""

    node_hour_cost: float = 1.0
    reconfig_cost: float = 0.25
    slo_violation_cost_per_s: float = 0.05
    slo_latency_s: float = 0.5
    #: score assigned to an infeasible candidate (pool exhausted)
    infeasible_cost: float = float("inf")

    def score(
        self,
        outcome: "BranchOutcome",
        current_app: int,
        current_db: int,
    ) -> CostBreakdown:
        """Price one branch outcome against the current configuration."""
        reconfigs = abs(outcome.candidate.app_replicas - current_app) + abs(
            outcome.candidate.db_replicas - current_db
        )
        if not outcome.feasible:
            return CostBreakdown(
                node_hours=float("nan"),
                node_cost=self.infeasible_cost,
                reconfig_count=reconfigs,
                reconfig_cost=reconfigs * self.reconfig_cost,
                slo_violation_s=float("nan"),
                slo_cost=0.0,
            )
        node_hours = outcome.node_seconds / 3600.0
        return CostBreakdown(
            node_hours=node_hours,
            node_cost=node_hours * self.node_hour_cost,
            reconfig_count=reconfigs,
            reconfig_cost=reconfigs * self.reconfig_cost,
            slo_violation_s=outcome.slo_violation_s,
            slo_cost=outcome.slo_violation_s * self.slo_violation_cost_per_s,
        )
