"""The ``"deploy"`` section of BENCH_engine.json and the ``repro
deploy`` command.

Two headline claims, asserted by ``repro bench --only deploy --smoke``
(the CI gate, one seed):

* **bad push** — the canary catches a regression (4x demand, 30 % 500s)
  and rolls back automatically; post-rollback goodput is within 5 % of
  the pre-push steady state.
* **clean bounce** — the ``crossover`` strategy keeps SLO violation
  seconds strictly below ``brutal`` during a clean fleet bounce (and
  never drops below one serving replica, where brutal blacks out).

:func:`score_scenario` is the one seed fan-out both the section and
``repro deploy`` score a scenario through.
"""

from __future__ import annotations

from typing import Sequence

from repro.deploy.scenario import PRESETS, STRATEGIES, deploy_config, with_strategy
from repro.deploy.scorecard import AGGREGATED, render_scorecard, score_run
from repro.metrics.aggregates import seed_scorecard
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner

#: scenario geometry: concurrent clients and run length (s)
CLIENTS = 120
DURATION_S = 540.0

#: ``repro deploy``'s help line and its ``--events`` help
COMMAND_HELP = (
    "push a new server version through a bounce strategy with canary "
    "analysis and SLO-gated automatic rollback"
)
EVENTS_HELP = "print the per-seed deployment event logs and capacity timeline"


def score_scenario(
    scenario,
    seeds: Sequence[int],
    runner,
    clients: int = CLIENTS,
    duration_s: float = DURATION_S,
    slo_latency_s: float = 0.5,
) -> tuple[dict, dict]:
    """Run ``scenario`` once per seed through ``runner``; returns its
    multi-seed scorecard and the runs by seed."""
    runs = runner.run_seeds(
        lambda seed: deploy_config(
            scenario, seed=seed, clients=clients, duration_s=duration_s
        ),
        seeds,
        prefix=f"deploy-{scenario.name}-{scenario.strategy}",
    )
    card = seed_scorecard(
        {
            "scenario": scenario.name,
            "strategy": scenario.strategy,
            "version": scenario.version.label,
            "canary": scenario.canary,
            "slo_latency_s": slo_latency_s,
        },
        [score_run(runs[s], slo_latency_s) for s in seeds],
        AGGREGATED,
        columns=(("seeds", "seed"), ("verdicts", "verdict")),
    )
    return card, runs


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"deploy"`` section of BENCH_engine.json (the CI smoke is one
    seed, which the caller passes)."""
    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )

    bad = PRESETS["bad-push"]()
    bad_card, _ = score_scenario(bad, seeds, runner)

    clean = PRESETS["clean-bounce"]()
    arms = {}
    for strategy in ("crossover", "brutal"):
        arms[strategy], _ = score_scenario(
            with_strategy(clean, strategy), seeds, runner
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


def add_arguments(parser) -> None:
    """``repro deploy``'s scenario and geometry flags."""
    parser.add_argument(
        "--scenario", default="clean-push", choices=sorted(PRESETS),
        help="named deployment scenario (default: clean-push)",
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default=None,
        help="override the scenario's bounce strategy "
        "(brutal | upthendown | crossover | downthenup)",
    )
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument(
        "--duration", type=float, default=DURATION_S,
        help=f"simulated seconds per run (default {DURATION_S:.0f})",
    )


def _scenario(args):
    scenario = PRESETS[args.scenario]()
    if args.strategy is not None:
        scenario = with_strategy(scenario, args.strategy)
    return scenario


def describe(args, seeds: Sequence[int]) -> str:
    """The line ``repro deploy`` prints before its fan-out."""
    scenario = _scenario(args)
    return (
        f"Deployment '{scenario.name}' ({scenario.version.label} via "
        f"{scenario.strategy}, canary={'on' if scenario.canary else 'off'}): "
        f"{args.clients} clients x {args.duration:.0f}s, "
        f"seeds {', '.join(str(s) for s in seeds)}..."
    )


def command(args, seeds: Sequence[int], runner) -> tuple[dict, dict, list[str]]:
    """``repro deploy``: the scorecard, the runs by seed and the render."""
    card, runs = score_scenario(
        _scenario(args), seeds, runner, clients=args.clients,
        duration_s=args.duration, slo_latency_s=args.slo,
    )
    return card, runs, render_scorecard(card)


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
    if h["rollbacks"] != h["runs"]:
        raise AssertionError(
            f"bad push not always rolled back: {h['rollbacks']}/{h['runs']}"
        )
    if not h["rollback_latency_s"]["mean"] < 120.0:
        raise AssertionError("rollback too slow")
    for row in section["bad_push"]["per_seed"]:
        if not abs(row["goodput_ratio"] - 1.0) <= 0.05:
            raise AssertionError(
                f"seed {row['seed']}: post-rollback goodput "
                f"{row['goodput_ratio'] * 100:.1f} % of pre-push"
            )
    crossover = h["crossover_slo_violation_s"]["mean"]
    brutal = h["brutal_slo_violation_s"]["mean"]
    if not crossover < brutal:
        raise AssertionError(
            f"crossover SLO violation ({crossover:.1f} s) not below "
            f"brutal ({brutal:.1f} s)"
        )
    if not h["crossover_min_serving"]["mean"] >= 3.0:
        raise AssertionError("crossover dipped below the fleet size")
    if not h["brutal_blackout_s"]["mean"] > 0.0:
        raise AssertionError("brutal bounce did not black out (model drifted?)")
