"""The ``"market"`` section of BENCH_engine.json (shared logic).

One headline claim, asserted by ``repro bench --only market --smoke``
(the CI gate, one seed): on the Fig. 9 ramp, the cost-aware fleet
allocator with the ``spot-heavy`` policy meets the **same SLO-violation
budget** as the paper's uniform on-demand pool at **>= 15 % lower total
fleet cost**, with 95 % confidence intervals across seeds.  The
``balanced`` arm rides along to show the floor/savings trade-off.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.market.costs import score_scenario
from repro.market.scenario import PRESETS, market_config

#: minimum mean savings (percent) the headline arm must clear
MIN_SAVINGS_PCT = 15.0
#: how far (s) the mean SLO violation may exceed the uniform pool's
SLO_TOLERANCE_S = 10.0
#: ramp geometry: peak clients and time compression
PEAK = 500
SCALE = 0.15
#: per-request latency (s) above which a second counts as an SLO violation
SLO_LATENCY_S = 0.5


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"market"`` section of BENCH_engine.json (the CI smoke is one
    seed, which the caller passes)."""
    from repro.runner import ExperimentRunner, ResultCache

    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    seeds = tuple(seeds)

    arms = {name: PRESETS[name]() for name in ("spot-heavy", "balanced")}
    labelled = {}
    for name, scenario in arms.items():
        for seed in seeds:
            labelled[f"{name}-s{seed}"] = market_config(
                scenario, seed=seed, peak=PEAK, scale=SCALE
            )
    for seed in seeds:
        labelled[f"uniform-s{seed}"] = replace(
            market_config(arms["spot-heavy"], seed=seed, peak=PEAK, scale=SCALE),
            market=None,
        )
    results = runner.run_many(labelled)

    cards = {
        name: score_scenario(
            scenario,
            [results[f"{name}-s{s}"] for s in seeds],
            slo_latency_s=SLO_LATENCY_S,
        )
        for name, scenario in arms.items()
    }
    uniform = score_scenario(
        None,
        [results[f"uniform-s{s}"] for s in seeds],
        slo_latency_s=SLO_LATENCY_S,
        uniform=True,
    )

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
    assert savings >= section["min_savings_pct"], (
        f"spot-heavy savings {savings:.1f} % below the "
        f"{section['min_savings_pct']:.0f} % headline floor"
    )
    assert h["slo_delta_s"] <= section["slo_tolerance_s"], (
        f"spot-heavy SLO violation exceeds the uniform pool's by "
        f"{h['slo_delta_s']:.1f} s (budget {section['slo_tolerance_s']:.0f} s)"
    )
    # the savings must come from the market, not from serving less work
    good = h["goodput_rps"]["mean"]
    uni_good = h["uniform_goodput_rps"]["mean"]
    assert good >= 0.95 * uni_good, (
        f"spot-heavy goodput {good:.2f} req/s fell below 95 % of the "
        f"uniform pool's {uni_good:.2f} req/s"
    )
    for row in section["arms"]["spot-heavy"]["per_seed"]:
        assert row["fleet_cost"] < row["uniform_cost"], (
            f"seed {row['seed']}: fleet cost {row['fleet_cost']:.3f} not "
            f"below uniform {row['uniform_cost']:.3f}"
        )
