"""Ablation A5 — navigation-model robustness.

The quantitative experiments draw interactions i.i.d. from the RUBiS mix
(MixNavigator); real clients walk session graphs (MarkovNavigator, whose
stationary distribution only approximates the mix).  A faithful autonomic
manager must not be sensitive to that modeling choice: this bench runs the
same compressed ramp under both navigators and compares the scaling events.
"""

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import RampProfile
from repro.workload.rubis import MarkovNavigator

from benchmarks._shared import emit

SCALE = 0.35


def run_with_navigator(markov: bool) -> dict:
    profile = RampProfile(
        warmup_s=300.0 * SCALE, step_period_s=60.0 * SCALE, cooldown_s=300.0 * SCALE
    )
    cfg = ExperimentConfig(profile=profile, seed=3)
    system = ManagedSystem(cfg)
    if markov:
        streams = system.streams
        system.emulator._navigator_factory = lambda cid: MarkovNavigator(
            streams.fresh(f"client-nav-{cid}")
        )
    col = system.run()
    events = {}
    for tier in ("database", "application"):
        grows = [
            int(col.workload.value_at(t))
            for t, v in col.replica_changes(tier)[1:]
            if v > col.tier_replicas[tier].value_at(t - 1.0)
        ]
        events[tier] = grows
    return {
        "navigator": "markov" if markov else "mix",
        "db_grow_clients": events["database"],
        "app_grow_clients": events["application"],
        "db_peak": int(col.tier_replicas["database"].max()),
        "app_peak": int(col.tier_replicas["application"].max()),
        "latency_ms": col.latency_summary()["mean"] * 1e3,
    }


def bench_ablation_navigator(benchmark):
    def sweep():
        return [run_with_navigator(False), run_with_navigator(True)]

    mix, markov = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Ablation A5: i.i.d. mix vs Markov session navigation (compressed ramp)",
        "",
        f"{'navigator':<10}{'db grows @clients':>20}{'app grows @clients':>20}"
        f"{'peaks (app/db)':>16}{'mean lat (ms)':>14}",
    ]
    for r in (mix, markov):
        lines.append(
            f"{r['navigator']:<10}{str(r['db_grow_clients']):>20}"
            f"{str(r['app_grow_clients']):>20}"
            f"{f'{r_app(r)}/{r_db(r)}':>16}{r['latency_ms']:>14.1f}"
        )
    emit("ablation_navigator", "\n".join(lines))

    # Same scaling structure under both navigation models.
    assert mix["db_peak"] == markov["db_peak"]
    assert mix["app_peak"] == markov["app_peak"]
    # First DB scale-out within ~25% of each other in client terms.
    if mix["db_grow_clients"] and markov["db_grow_clients"]:
        a, b = mix["db_grow_clients"][0], markov["db_grow_clients"][0]
        assert abs(a - b) / max(a, b) < 0.25


def r_app(r):
    return r["app_peak"]


def r_db(r):
    return r["db_peak"]
