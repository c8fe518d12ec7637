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

from contextlib import ExitStack
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Sequence

from repro.policy.tune import (
    TuneObjective,
    describe_knobs,
    knob_record,
    load_tuned_knobs,
    render_report,
    run_tune,
    score_cell,
)
from repro.runner.sweep import SweepPoint, SweepSpec

#: the committed autotuning artifact (repo-root relative)
TUNED_CONFIG_PATH = (
    Path(__file__).resolve().parents[3] / "configs" / "tuned_policy.json"
)

#: node-hours gate: the tuned cell may cost at most +2 % capacity
NODE_HOURS_MARGIN = 1.02
#: time compression of the Fig. 9 ramp both arms run
SCALE = 0.15


def arms(seeds: Sequence[int]) -> dict:
    """The ``default`` (paper) and ``tuned`` (committed) cells: each one
    ramp point per seed."""
    knobs = {"default": {}, "tuned": load_tuned_knobs(TUNED_CONFIG_PATH)}
    return {
        arm: [SweepPoint("managed", seed, SCALE, 1, **kw) for seed in seeds]
        for arm, kw in knobs.items()
    }


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
    from repro.runner.cache import ResultCache
    from repro.runner.parallel import ExperimentRunner

    seeds = tuple(seeds)
    objective = TuneObjective()
    cells = arms(seeds)
    configs = {
        f"policy-{arm}-s{point.seed}": point.config()
        for arm, cell in cells.items()
        for point in cell
    }
    with ExitStack() as scratch:
        cache = ResultCache() if use_cache else None
        tune_smoke = None
        if smoke:
            if cache is None:
                # The smoke grid's sane cell is the default arm's seed-1
                # run (equal config digests): a throwaway cache shared by
                # both batches simulates it once and reads no older entry.
                cache = ResultCache(
                    root=Path(scratch.enter_context(TemporaryDirectory()))
                )
            tune_smoke = run_tune_smoke(parallel=parallel, cache=cache)
            if not use_cache:
                del tune_smoke["cache"]  # the throwaway cache's counts
        runner = ExperimentRunner(cache=cache, parallel=parallel)
        results = runner.run_many(configs)

    section: dict = {
        "seeds": list(seeds),
        "scale": SCALE,
        "objective": objective.to_record(),
        "arms": {},
    }
    for arm, cell in cells.items():
        section["arms"][arm] = {
            "point": knob_record(cell[0]),
            **score_cell(
                [results[f"policy-{arm}-s{p.seed}"] for p in cell], objective
            ),
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
    gate = section["gate"]
    lines += [
        "",
        f"tuned: {describe_knobs(section['arms']['tuned']['point'])}",
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
        if a["slo_violation_s"]["n"] != n_seeds:
            raise AssertionError(
                f"{arm}: SLO violation over {a['slo_violation_s']['n']} "
                f"of {n_seeds} seeds"
            )
        if not a["node_hours"]["mean"] > 0:
            raise AssertionError(f"{arm}: no node-hours recorded")
    if not section["gate"]["slo_ok"]:
        raise AssertionError(
            "tuned controller lost to the paper defaults on SLO violation "
            "seconds"
        )
    if not section["gate"]["node_hours_ok"]:
        raise AssertionError("tuned controller exceeded the +2% node-hours budget")


# ----------------------------------------------------------------------
# Tuner smoke (the first half of the CI policy gate)
# ----------------------------------------------------------------------
def smoke_spec(scale: float = 0.15) -> SweepSpec:
    """2×2 grid: both grow thresholds at paper default vs. at 0.99."""
    return SweepSpec(
        seeds=(1,),
        scales=(scale,),
        policies=("managed",),
        app_max=(0.80, 0.99),
        db_max=(0.75, 0.99),
    )


def run_tune_smoke(scale: float = 0.15, parallel: bool = True, cache=None) -> dict:
    """Run the smoke grid (through ``cache``, a :class:`ResultCache` or
    None) and assert the tuner's ranking is sane."""
    from repro.runner.parallel import ExperimentRunner

    runner = ExperimentRunner(cache=cache, parallel=parallel)
    report = run_tune(smoke_spec(scale), runner=runner)
    if len(report["cells"]) != 4:
        raise AssertionError(f"expected 4 tuner cells, got {len(report['cells'])}")
    # The one sane cell (paper-default thresholds) must win outright;
    # every crippled never-grow (0.99) cell must score strictly worse.
    # (Note "worse" is about score, not rank-last: a never-grow tier
    # saves node-hours, so the doubly-crippled cell is cheap-but-broken
    # rather than maximally expensive.)
    ranked = report["cells"]
    best = ranked[0]["point"]
    if not (best["app_max"] == 0.80 and best["db_max"] == 0.75):
        raise AssertionError(f"tuner failed to rank the sane cell first: got {best}")
    for cell in ranked[1:]:
        p = cell["point"]
        if not (p["app_max"] == 0.99 or p["db_max"] == 0.99):
            raise AssertionError(
                f"uncrippled cell {cell['label']} ranked behind the best"
            )
        if not cell["score"]["mean"] > ranked[0]["score"]["mean"]:
            raise AssertionError(
                f"crippled cell {cell['label']} did not score worse than "
                "the sane cell"
            )
    return report
