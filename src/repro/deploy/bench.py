"""The ``"deploy"`` section of BENCH_engine.json (shared logic).

Two headline claims, asserted by ``repro bench --only deploy --smoke``
(the CI gate, one seed):

* **bad push** — the canary catches a regression (4x demand, 30 % 500s)
  and rolls back automatically; post-rollback goodput is within 5 % of
  the pre-push steady state.
* **clean bounce** — the ``crossover`` strategy keeps SLO violation
  seconds strictly below ``brutal`` during a clean fleet bounce (and
  never drops below one serving replica, where brutal blacks out).
"""

from __future__ import annotations

from typing import Sequence

from repro.deploy.scenario import PRESETS, deploy_config, with_strategy
from repro.deploy.scorecard import score_scenario

#: scenario geometry: concurrent clients and run length (s)
CLIENTS = 120
DURATION_S = 540.0

def _runs(runner, scenario, seeds):
    runs = runner.run_seeds(
        lambda seed: deploy_config(
            scenario, seed=seed, clients=CLIENTS, duration_s=DURATION_S
        ),
        seeds,
        prefix=f"deploy-{scenario.name}-{scenario.strategy}",
    )
    return [runs[s] for s in seeds]


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"deploy"`` section of BENCH_engine.json (the CI smoke is one
    seed, which the caller passes)."""
    from repro.runner import ExperimentRunner, ResultCache

    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    seeds = tuple(seeds)

    bad = PRESETS["bad-push"]()
    bad_card = score_scenario(bad, _runs(runner, bad, seeds))

    clean = PRESETS["clean-bounce"]()
    arms = {}
    for strategy in ("crossover", "brutal"):
        scenario = with_strategy(clean, strategy)
        arms[strategy] = score_scenario(
            scenario, _runs(runner, scenario, seeds)
        )

    return {
        "seeds": list(seeds),
        "clients": CLIENTS,
        "duration_s": DURATION_S,
        "bad_push": bad_card,
        "clean_bounce": arms,
        "headline": {
            "rollbacks": sum(
                1 for v in bad_card["verdicts"] if v == "rolled-back"
            ),
            "runs": len(seeds),
            "rollback_latency_s": bad_card["aggregate"]["rollback_latency_s"],
            "goodput_ratio": bad_card["aggregate"]["goodput_ratio"],
            "crossover_slo_violation_s": arms["crossover"]["aggregate"][
                "bounce_slo_violation_s"
            ],
            "brutal_slo_violation_s": arms["brutal"]["aggregate"][
                "bounce_slo_violation_s"
            ],
            "crossover_min_serving": arms["crossover"]["aggregate"]["min_serving"],
            "brutal_blackout_s": arms["brutal"]["aggregate"]["blackout_s"],
        },
    }


def render_section(section: dict) -> str:
    h = section["headline"]
    lines = [
        f"Deployments: {section['clients']} clients x "
        f"{section['duration_s']:.0f}s, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"bad push (canary):    {h['rollbacks']}/{h['runs']} rolled back, "
        f"latency {h['rollback_latency_s']['mean']:.1f} +/- "
        f"{h['rollback_latency_s']['ci95']:.1f} s, "
        f"post/pre goodput {h['goodput_ratio']['mean'] * 100:.1f} %",
        "clean bounce (SLO violation s, min serving):",
        f"  crossover : {h['crossover_slo_violation_s']['mean']:6.1f} s   "
        f"min {h['crossover_min_serving']['mean']:.1f} replicas",
        f"  brutal    : {h['brutal_slo_violation_s']['mean']:6.1f} s   "
        f"blackout {h['brutal_blackout_s']['mean']:.1f} s",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The load-bearing assertions shared by pytest and the CI smoke."""
    h = section["headline"]
    assert h["rollbacks"] == h["runs"], (
        f"bad push not always rolled back: {h['rollbacks']}/{h['runs']}"
    )
    assert h["rollback_latency_s"]["mean"] < 120.0, "rollback too slow"
    for row in section["bad_push"]["per_seed"]:
        assert abs(row["goodput_ratio"] - 1.0) <= 0.05, (
            f"seed {row['seed']}: post-rollback goodput "
            f"{row['goodput_ratio'] * 100:.1f} % of pre-push"
        )
    crossover = h["crossover_slo_violation_s"]["mean"]
    brutal = h["brutal_slo_violation_s"]["mean"]
    assert crossover < brutal, (
        f"crossover SLO violation ({crossover:.1f} s) not below "
        f"brutal ({brutal:.1f} s)"
    )
    assert h["crossover_min_serving"]["mean"] >= 3.0, (
        "crossover dipped below the fleet size"
    )
    assert h["brutal_blackout_s"]["mean"] > 0.0, (
        "brutal bounce did not black out (model drifted?)"
    )
