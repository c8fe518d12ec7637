"""The ``"policy"`` section of BENCH_engine.json (shared logic).

Proves the autotuner's keep: the committed tuned controller
(``configs/tuned_policy.json``, produced by ``repro tune``) against the
paper's hand-set defaults on the Fig. 9 ramp, across seeds with 95 % CIs.
The gate is the operator's bargain — the tuned cell must cut SLO
violation seconds without buying the win with capacity (node-hours
within +2 % of the defaults).

Also hosts the tuner's own smoke, which ``repro bench --only policy
--smoke`` (the CI gate) runs before the one-seed comparison: a tiny 2×2
threshold grid where the one sane cell (paper-default thresholds) must
rank first and every known-bad cell (a grow threshold at 0.99, so that
tier never scales up) must score strictly worse.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.metrics.aggregates import mean_ci
from repro.policy.tune import (
    PAPER_DEFAULT,
    TuneObjective,
    TuneSpec,
    load_tuned_point,
    render_report,
    run_tune,
    score_run,
)

#: the committed autotuning artifact (repo-root relative)
TUNED_CONFIG_PATH = (
    Path(__file__).resolve().parents[3] / "configs" / "tuned_policy.json"
)

#: node-hours gate: the tuned cell may cost at most +2 % capacity
NODE_HOURS_MARGIN = 1.02
#: time compression of the Fig. 9 ramp both arms run
SCALE = 0.15


def run_section(
    *,
    seeds: Sequence[int] = (1, 2, 3),
    parallel: bool = True,
    use_cache: bool = False,
    smoke: bool = False,
) -> dict:
    """The ``"policy"`` section of BENCH_engine.json.  With ``smoke`` the
    tuner smoke (:func:`run_tune_smoke`) runs first and its report rides
    along under ``"tune_smoke"``."""
    from repro.runner import ExperimentRunner, ResultCache

    tune_smoke = (
        run_tune_smoke(parallel=parallel, use_cache=use_cache) if smoke else None
    )
    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    seeds, scale = tuple(seeds), SCALE
    tuned = load_tuned_point(TUNED_CONFIG_PATH)
    objective = TuneObjective()
    arms = {"default": PAPER_DEFAULT, "tuned": tuned}
    configs = {
        f"policy-{arm}-s{seed}": point.config(seed, scale)
        for arm, point in arms.items()
        for seed in seeds
    }
    results = runner.run_many(configs)

    section: dict = {
        "seeds": list(seeds),
        "scale": scale,
        "objective": objective.to_record(),
        "arms": {},
    }
    for arm, point in arms.items():
        per_seed = [
            score_run(results[f"policy-{arm}-s{seed}"], objective)
            for seed in seeds
        ]
        section["arms"][arm] = {
            "point": point.to_record(),
            "slo_violation_s": mean_ci(
                [s["slo_violation_s"] for s in per_seed]
            ),
            "node_hours": mean_ci([s["node_hours"] for s in per_seed]),
            "reconfigs": mean_ci([s["reconfigs"] for s in per_seed]),
            "score": mean_ci([s["score"] for s in per_seed]),
        }
    default, tuned_arm = section["arms"]["default"], section["arms"]["tuned"]
    section["gate"] = {
        "node_hours_margin": NODE_HOURS_MARGIN,
        "slo_ok": (
            tuned_arm["slo_violation_s"]["mean"]
            <= default["slo_violation_s"]["mean"]
        ),
        "node_hours_ok": (
            tuned_arm["node_hours"]["mean"]
            <= default["node_hours"]["mean"] * NODE_HOURS_MARGIN
        ),
    }
    if tune_smoke is not None:
        section["tune_smoke"] = tune_smoke
    return section


def render_section(section: dict) -> str:
    lines = []
    if "tune_smoke" in section:
        lines += [render_report(section["tune_smoke"], top=4), ""]
    lines += [
        f"Controller autotuning: Fig. 9 ramp at scale "
        f"{section['scale']:g}, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"{'arm':<8s} {'SLO viol (s)':>16s} {'node-hrs':>16s} "
        f"{'reconf':>10s} {'score':>14s}",
    ]
    for arm in ("default", "tuned"):
        a = section["arms"][arm]
        slo, nh = a["slo_violation_s"], a["node_hours"]
        lines.append(
            f"{arm:<8s} "
            f"{slo['mean']:9.1f} +/- {slo['ci95']:3.1f} "
            f"{nh['mean']:10.3f} +/- {nh['ci95']:.3f} "
            f"{a['reconfigs']['mean']:10.1f} "
            f"{a['score']['mean']:8.2f} +/- {a['score']['ci95']:.2f}"
        )
    p = section["arms"]["tuned"]["point"]
    gate = section["gate"]
    lines += [
        "",
        f"tuned: app band ({p['app_min']:.2f}, {p['app_max']:.2f}), "
        f"db band ({p['db_min']:.2f}, {p['db_max']:.2f}), "
        f"windows x{p['window_scale']:g}, "
        f"inhibition {p['inhibition_s']:.0f}s, "
        f"controller {p['controller']}",
        f"gate: SLO {'OK' if gate['slo_ok'] else 'FAIL'}, node-hours "
        f"{'OK' if gate['node_hours_ok'] else 'FAIL'} "
        f"(margin {gate['node_hours_margin']:g}x)",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The load-bearing assertions shared by pytest and the CI smoke."""
    n_seeds = len(section["seeds"])
    for arm in ("default", "tuned"):
        a = section["arms"][arm]
        assert a["slo_violation_s"]["n"] == n_seeds
        assert a["node_hours"]["mean"] > 0
    assert section["gate"]["slo_ok"], (
        "tuned controller lost to the paper defaults on SLO violation "
        "seconds"
    )
    assert section["gate"]["node_hours_ok"], (
        "tuned controller exceeded the +2% node-hours budget"
    )


# ----------------------------------------------------------------------
# Tuner smoke (the first half of the CI policy gate)
# ----------------------------------------------------------------------
def smoke_spec(scale: float = 0.15) -> TuneSpec:
    """2×2 grid: both grow thresholds at paper default vs. at 0.99."""
    return TuneSpec(
        app_max=(0.80, 0.99),
        app_min=(0.38,),
        db_max=(0.75, 0.99),
        db_min=(0.40,),
        seeds=(1,),
        scale=scale,
    )


def run_tune_smoke(
    scale: float = 0.15, parallel: bool = True, use_cache: bool = False
) -> dict:
    """Run the smoke grid and assert the tuner's ranking is sane."""
    from repro.runner import ExperimentRunner, ResultCache

    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    report = run_tune(smoke_spec(scale), runner=runner)
    assert len(report["cells"]) == 4
    # The one sane cell (paper-default thresholds) must win outright;
    # every crippled never-grow (0.99) cell must score strictly worse.
    # (Note "worse" is about score, not rank-last: a never-grow tier
    # saves node-hours, so the doubly-crippled cell is cheap-but-broken
    # rather than maximally expensive.)
    ranked = report["cells"]
    best = ranked[0]["point"]
    assert best["app_max"] == 0.80 and best["db_max"] == 0.75, (
        f"tuner failed to rank the sane cell first: got {best}"
    )
    for cell in ranked[1:]:
        p = cell["point"]
        assert p["app_max"] == 0.99 or p["db_max"] == 0.99
        assert cell["score"]["mean"] > ranked[0]["score"]["mean"], (
            f"crippled cell {cell['label']} did not score worse than "
            "the sane cell"
        )
    return report
