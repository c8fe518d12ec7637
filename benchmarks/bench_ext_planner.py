"""Extension — reactive thresholds vs model-based capacity planning.

The paper's reactor waits for a threshold crossing and moves one replica at
a time.  The ``target-utilization`` policy instead computes
the replica count that places utilization at a target and steers toward it
— one fewer hand-tuned parameter pair per tier, and better behaviour under
*abrupt* load steps (the threshold reactor needs one inhibition window per
replica; the planner's intent is known from the first reading).
"""

from repro.jade.self_optimization import LoopConfig
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.policy.api import PolicyConfig
from repro.workload.profiles import PiecewiseProfile

from benchmarks._shared import emit

#: an abrupt step straight to a load needing 3 DB replicas
PROFILE = PiecewiseProfile([(0.0, 80), (120.0, 420), (900.0, 80)], duration_s=1400.0)


def run_case(planner: bool) -> dict:
    if planner:
        pc = PolicyConfig.parse("target-utilization:target_utilization=0.55")
        db = LoopConfig(window_s=90.0, policy=pc)
        app = LoopConfig(window_s=60.0, policy=pc)
    else:
        db = LoopConfig(window_s=90.0, max_threshold=0.75, min_threshold=0.40)
        app = LoopConfig(window_s=60.0, max_threshold=0.80, min_threshold=0.38)
    cfg = ExperimentConfig(
        profile=PROFILE, seed=14, db_loop=db, app_loop=app, tail_s=30.0
    )
    system = ManagedSystem(cfg)
    col = system.run()
    # Time from the step until the DB tier reached its final (peak) size.
    db_series = col.tier_replicas["database"]
    peak = db_series.max()
    settle_t = next(
        (t for t, v in db_series.changes if v == peak), float("nan")
    )
    transient = col.latencies.window(120.0, 600.0)
    return {
        "reactor": "planner" if planner else "threshold",
        "db_peak": int(peak),
        "settle_s": settle_t - 120.0,
        "transient_p95_ms": 1e3
        * float(__import__("numpy").percentile(transient.values, 95)),
        "reconfigs": len(db_series.changes) - 1,
    }


def bench_ext_planner_vs_threshold(benchmark):
    def sweep():
        return [run_case(False), run_case(True)]

    threshold, planner = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Extension: reactive threshold vs model-based planner "
        "(step 80 -> 420 clients)",
        "",
        f"{'reactor':<12}{'db peak':>8}{'settle (s)':>11}"
        f"{'transient p95 (ms)':>19}{'db reconfigs':>13}",
    ]
    for r in (threshold, planner):
        lines.append(
            f"{r['reactor']:<12}{r['db_peak']:>8}{r['settle_s']:>11.0f}"
            f"{r['transient_p95_ms']:>19.1f}{r['reconfigs']:>13}"
        )
    emit("ext_planner", "\n".join(lines))

    # Both control schemes reach a multi-replica configuration and keep the
    # transient bounded; the planner settles at least as fast.
    assert planner["db_peak"] >= 2
    assert threshold["db_peak"] >= 2
    assert planner["settle_s"] <= threshold["settle_s"] * 1.25
