#!/usr/bin/env python
"""Capacity planning: forecast, fork, compare, act.

Walks the full proactive pipeline from :mod:`repro.capacity`:

1. run the managed ramp to a fork point and snapshot the system,
2. forecast the client load over a horizon (linear trend),
3. fork the simulation — one deterministic branch per candidate replica
   configuration — and score each on latency, SLO violation and cost,
4. verify the what-if guarantee: identical forks give byte-identical
   reports, and the parent run is never mutated,
5. re-run the same ramp with the :class:`ProactiveManager` in charge and
   show the staircase shifting ahead of the threshold crossings.

Run:  python examples/capacity_planning.py
"""

from repro.capacity.cost import CostModel
from repro.capacity.forecast import LinearTrendForecaster
from repro.capacity.proactive import ProactiveConfig
from repro.capacity.whatif import WhatIfEngine, run_to_fork
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import RampProfile

SEED = 7
SLO_S = 0.25


def ramp() -> RampProfile:
    # A compressed §5.2 ramp: 80 -> 500 -> 80 clients in ~1200 s.
    return RampProfile(warmup_s=120.0, step_period_s=24.0, cooldown_s=120.0)


def build(proactive: bool = False) -> ManagedSystem:
    config = ExperimentConfig(
        profile=ramp(),
        seed=SEED,
        managed=True,
        proactive=proactive,
        proactive_config=ProactiveConfig(
            min_eval_interval_s=90.0,
            grow_margin=0.85,
            cost_model=CostModel(slo_latency_s=SLO_S, slo_violation_cost_per_s=0.2),
        )
        if proactive
        else None,
    )
    return ManagedSystem(config)


def main() -> None:
    fork_at = 260.0
    print(f"Running the managed ramp to the fork point t={fork_at:.0f}s...")
    parent = build()
    snapshot = run_to_fork(parent, fork_at)
    print(
        f"  fork: {snapshot.clients} clients, app x{snapshot.app_replicas}, "
        f"db x{snapshot.db_replicas}, {snapshot.free_nodes} free nodes"
    )

    forecaster = LinearTrendForecaster()
    for t, clients in parent.collector.workload.changes:
        forecaster.observe(t, clients)
    forecast = forecaster.predict(horizon_s=120.0)
    peak = max(v for _, v in forecast)
    print(f"  forecast [trend]: load {snapshot.clients} -> peak {peak:.0f} in 120s")

    engine = WhatIfEngine(
        horizon_s=120.0,
        cost_model=CostModel(slo_latency_s=SLO_S, slo_violation_cost_per_s=0.2),
    )
    print("\nForking one branch simulation per candidate configuration:")
    outcomes = engine.evaluate(snapshot, forecast)
    best = engine.best(outcomes)
    for outcome in outcomes:
        marker = "  <- best" if outcome is best else ""
        print(
            f"  {outcome.candidate.label:<10s} "
            f"p95 {outcome.latency_p95_s * 1e3:7.1f} ms   "
            f"SLO viol {outcome.slo_violation_s:5.0f} s   "
            f"cost {outcome.cost.total:7.3f}{marker}"
        )

    # The two what-if guarantees, demonstrated live:
    identical = engine.report(outcomes) == engine.report(
        engine.evaluate(snapshot, forecast)
    )
    print(f"\nRe-evaluating the same fork: byte-identical report = {identical}")
    untouched = parent.kernel.now == fork_at
    print(f"Parent still parked at t={parent.kernel.now:.0f}s (unmutated: {untouched})")

    print("\nSame ramp, proactive manager active:")
    managed = build(proactive=True)
    managed.run()
    proactive = managed.proactive
    print(
        f"  {proactive.forecasts_issued} forecasts, "
        f"{proactive.evaluations} what-if evaluations, "
        f"{proactive.grows_triggered} proactive grows"
    )
    for tier in ("application", "database"):
        staircase = " ".join(
            f"t={t:.0f}s->{v:.0f}"
            for t, v in managed.collector.tier_replicas[tier].changes
        )
        print(f"  {tier} replicas: {staircase}")
    print(
        "\nCapacity lands ahead of the measured crossing: the what-if branch "
        "pays the reconfiguration before the SLO does."
    )


if __name__ == "__main__":
    main()
