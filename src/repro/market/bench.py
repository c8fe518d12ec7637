"""The ``"market"`` section of BENCH_engine.json and the ``repro
market`` command.

One headline claim, asserted by ``repro bench --only market --smoke``
(the CI gate, one seed): on the Fig. 9 ramp, the cost-aware fleet
allocator with the ``spot-heavy`` policy meets the **same SLO-violation
budget** as the paper's uniform on-demand pool at **>= 15 % lower total
fleet cost**, with 95 % confidence intervals across seeds.  The
``balanced`` arm rides along to show the floor/savings trade-off.

:func:`evaluate_mixes` is the one seed fan-out both the section and
``repro market`` score fleet mixes through: a what-if over fleet
policies (one level above :mod:`repro.capacity.whatif`'s replica
counts) that ranks the mixes keeping the SLO by cost.  ``repro market
--compare`` prints it over every preset.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.market.costs import (
    AGGREGATED,
    render_scorecard,
    score_run,
    score_uniform_run,
)
from repro.market.scenario import PRESETS, MarketScenario, market_config
from repro.metrics.aggregates import seed_scorecard
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner

#: minimum mean savings (percent) the headline arm must clear
MIN_SAVINGS_PCT = 15.0
#: how far (s) the mean SLO violation may exceed the uniform pool's
SLO_TOLERANCE_S = 10.0
#: how far (s) a mix's mean SLO violation may exceed the uniform pool's
#: and still rank as feasible in :func:`evaluate_mixes`
MIX_SLO_TOLERANCE_S = 5.0
#: ramp geometry: peak clients and time compression
PEAK = 500
SCALE = 0.15
#: per-request latency (s) above which a second counts as an SLO violation
SLO_LATENCY_S = 0.5

#: ``repro market``'s help line and its ``--events`` help
COMMAND_HELP = (
    "run the ramp on a heterogeneous spot/on-demand fleet and print the "
    "fleet-cost scorecard (savings vs the uniform pool)"
)
EVENTS_HELP = "print the per-seed rebalance and interruption logs"


def evaluate_mixes(
    scenarios: Sequence[MarketScenario],
    seeds: Sequence[int],
    runner,
    peak: int = PEAK,
    scale: float = SCALE,
    slo_latency_s: float = SLO_LATENCY_S,
) -> tuple[dict, dict]:
    """Run every candidate mix, and the uniform pool on the first mix's
    ramp, once per seed through ``runner`` and rank them: SLO-feasible
    arms first, cheapest first.  Returns the ranked table, which holds
    every arm's multi-seed scorecard, and the runs by label
    (``NAME-sSEED``, ``uniform-sSEED``).

    An arm is *feasible* when its mean SLO violation stays within
    :data:`MIX_SLO_TOLERANCE_S` of the uniform pool's — the cost
    comparison only counts if the latency story holds.
    """
    labelled = {
        f"{scenario.name}-s{seed}": market_config(
            scenario, seed=seed, peak=peak, scale=scale
        )
        for scenario in scenarios
        for seed in seeds
    }
    for seed in seeds:
        labelled[f"uniform-s{seed}"] = replace(
            market_config(scenarios[0], seed=seed, peak=peak, scale=scale),
            market=None,
        )
    runs = runner.run_many(labelled)

    def card(name: str, policy: str, scorer) -> dict:
        return seed_scorecard(
            {"scenario": name, "policy": policy, "slo_latency_s": slo_latency_s},
            [scorer(runs[f"{name}-s{s}"], slo_latency_s) for s in seeds],
            AGGREGATED,
        )

    cards = [card(s.name, s.policy, score_run) for s in scenarios]
    uniform = card("uniform", "uniform", score_uniform_run)
    slo_budget = uniform["aggregate"]["slo_violation_s"]["mean"] + MIX_SLO_TOLERANCE_S
    branches = []
    for arm in cards + [uniform]:
        agg = arm["aggregate"]
        slo = agg["slo_violation_s"]["mean"]
        branches.append(
            {
                "scenario": arm["scenario"],
                "policy": arm["policy"],
                "fleet_cost": agg["fleet_cost"]["mean"],
                "savings_pct": agg["savings_pct"]["mean"],
                "slo_violation_s": slo,
                "spot_share": agg["spot_share"]["mean"],
                "feasible": bool(slo == slo and slo <= slo_budget),
            }
        )
    branches.sort(key=lambda b: (not b["feasible"], b["fleet_cost"], b["scenario"]))
    table = {
        "seeds": list(seeds),
        "slo_budget_s": slo_budget,
        "branches": branches,
        "best": branches[0]["scenario"],
        "scorecards": {arm["scenario"]: arm for arm in cards},
        "uniform": uniform,
    }
    return table, runs


def render_mixes(table: dict) -> list[str]:
    """Human-readable branch table for ``repro market --compare``."""
    lines = [
        f"Fleet-mix what-if over seeds {table['seeds']} "
        f"(SLO budget: {table['slo_budget_s']:.1f}s):",
        f"  {'scenario':<12} {'policy':<10} {'cost':>8} {'save%':>7} "
        f"{'slo_s':>6} {'spot%':>6}  verdict",
    ]
    for branch in table["branches"]:
        marker = "ok " if branch["feasible"] else "SLO"
        best = " <- best" if branch["scenario"] == table["best"] else ""
        lines.append(
            f"  {branch['scenario']:<12} {branch['policy']:<10} "
            f"{branch['fleet_cost']:>8.3f} {branch['savings_pct']:>6.1f}% "
            f"{branch['slo_violation_s']:>6.1f} "
            f"{branch['spot_share'] * 100:>5.1f}%  {marker}{best}"
        )
    return lines


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"market"`` section of BENCH_engine.json (the CI smoke is one
    seed, which the caller passes)."""
    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    table, _ = evaluate_mixes(
        [PRESETS[name]() for name in ("spot-heavy", "balanced")], seeds, runner
    )
    cards, uniform = table["scorecards"], table["uniform"]

    head = cards["spot-heavy"]["aggregate"]
    uni = uniform["aggregate"]
    return {
        "seeds": list(seeds),
        "peak": PEAK,
        "scale": SCALE,
        "slo_latency_s": SLO_LATENCY_S,
        "slo_tolerance_s": SLO_TOLERANCE_S,
        "min_savings_pct": MIN_SAVINGS_PCT,
        "arms": cards,
        "uniform": uniform,
        "headline": {
            "fleet_cost": head["fleet_cost"],
            "uniform_cost": head["uniform_cost"],
            "savings_pct": head["savings_pct"],
            "spot_share": head["spot_share"],
            "slo_violation_s": head["slo_violation_s"],
            "uniform_slo_violation_s": uni["slo_violation_s"],
            "slo_delta_s": (
                head["slo_violation_s"]["mean"] - uni["slo_violation_s"]["mean"]
            ),
            "goodput_rps": head["goodput_rps"],
            "uniform_goodput_rps": uni["goodput_rps"],
        },
    }


def add_arguments(parser) -> None:
    """``repro market``'s scenario and ramp flags."""
    parser.add_argument(
        "--scenario", default="spot-heavy", choices=sorted(PRESETS),
        help="named market scenario preset (default: spot-heavy)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="what-if over every preset fleet mix (plus the uniform "
        "baseline) and rank the SLO-feasible mixes by cost",
    )
    parser.add_argument(
        "--peak", type=int, default=PEAK, help="ramp peak client count"
    )
    parser.add_argument(
        "--scale", type=float, default=SCALE,
        help=f"time compression of the ramp runs (default {SCALE:g})",
    )


def describe(args, seeds: Sequence[int]) -> str:
    """The line ``repro market`` prints before its fan-out."""
    seed_list = ", ".join(str(s) for s in seeds)
    if args.compare:
        return (
            f"Comparing {len(PRESETS)} fleet mixes + uniform baseline "
            f"over seeds {seed_list}..."
        )
    scenario = PRESETS[args.scenario]()
    return (
        f"Scenario '{scenario.name}' (policy: {scenario.policy}, "
        f"od floor {scenario.on_demand_floor:.0%}, "
        f"hazard {scenario.interruption_hazard_per_hour:g}/h): "
        f"ramp to {args.peak} at scale {args.scale:g}, seeds {seed_list}..."
    )


def command(args, seeds: Sequence[int], runner) -> tuple[dict, dict, list[str]]:
    """``repro market``: the scorecard (``--compare``: the ranked table),
    the runs by seed (none with ``--compare``) and the render."""
    names = sorted(PRESETS) if args.compare else [args.scenario]
    table, runs = evaluate_mixes(
        [PRESETS[name]() for name in names], seeds, runner,
        peak=args.peak, scale=args.scale, slo_latency_s=args.slo,
    )
    if args.compare:
        return table, {}, render_mixes(table)
    card = table["scorecards"][args.scenario]
    uni_slo = table["uniform"]["aggregate"]["slo_violation_s"]["mean"]
    delta = card["aggregate"]["slo_violation_s"]["mean"] - uni_slo
    return (
        card,
        {seed: runs[f"{args.scenario}-s{seed}"] for seed in seeds},
        render_scorecard(card)
        + [f"  uniform-pool SLO    : {uni_slo:.2f} s (delta {delta:+.2f} s)"],
    )


def render_section(section: dict) -> str:
    h = section["headline"]
    lines = [
        f"Heterogeneous fleet: Fig. 9 ramp to {section['peak']} at scale "
        f"{section['scale']:g}, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"spot-heavy: cost {h['fleet_cost']['mean']:.3f} +/- "
        f"{h['fleet_cost']['ci95']:.3f} vs uniform "
        f"{h['uniform_cost']['mean']:.3f} "
        f"(savings {h['savings_pct']['mean']:.1f} +/- "
        f"{h['savings_pct']['ci95']:.1f} %, "
        f"spot share {h['spot_share']['mean'] * 100:.0f} %)",
        f"SLO violation: {h['slo_violation_s']['mean']:.1f} +/- "
        f"{h['slo_violation_s']['ci95']:.1f} s vs uniform "
        f"{h['uniform_slo_violation_s']['mean']:.1f} s "
        f"(delta {h['slo_delta_s']:+.1f} s, budget "
        f"+{section['slo_tolerance_s']:.0f} s)",
        f"goodput: {h['goodput_rps']['mean']:.2f} vs uniform "
        f"{h['uniform_goodput_rps']['mean']:.2f} req/s",
    ]
    for name, card in sorted(section["arms"].items()):
        if name == "spot-heavy":
            continue
        agg = card["aggregate"]
        lines.append(
            f"{name}: cost {agg['fleet_cost']['mean']:.3f} "
            f"(savings {agg['savings_pct']['mean']:.1f} %), "
            f"SLO {agg['slo_violation_s']['mean']:.1f} s"
        )
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The load-bearing assertions shared by pytest and the CI smoke."""
    h = section["headline"]
    savings = h["savings_pct"]["mean"]
    if not savings >= section["min_savings_pct"]:
        raise AssertionError(
            f"spot-heavy savings {savings:.1f} % below the "
            f"{section['min_savings_pct']:.0f} % headline floor"
        )
    if not h["slo_delta_s"] <= section["slo_tolerance_s"]:
        raise AssertionError(
            f"spot-heavy SLO violation exceeds the uniform pool's by "
            f"{h['slo_delta_s']:.1f} s (budget {section['slo_tolerance_s']:.0f} s)"
        )
    # the savings must come from the market, not from serving less work
    good = h["goodput_rps"]["mean"]
    uni_good = h["uniform_goodput_rps"]["mean"]
    if not good >= 0.95 * uni_good:
        raise AssertionError(
            f"spot-heavy goodput {good:.2f} req/s fell below 95 % of the "
            f"uniform pool's {uni_good:.2f} req/s"
        )
    for row in section["arms"]["spot-heavy"]["per_seed"]:
        if not row["fleet_cost"] < row["uniform_cost"]:
            raise AssertionError(
                f"seed {row['seed']}: fleet cost {row['fleet_cost']:.3f} not "
                f"below uniform {row['uniform_cost']:.3f}"
            )
