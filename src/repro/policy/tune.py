"""Sweep-driven autotuning of controller/policy parameters.

The paper hand-set its controller constants "experimentally through
specific benchmarks" (§5.2).  This module mechanizes that experiment:
a tune is a :mod:`repro.runner.sweep` grid over the loop-knob axes —
thresholds, moving-average windows, the inhibition period — and the
controller axis (any :class:`~repro.policy.api.PolicyConfig` plugin),
optionally subsampled.  A tune *cell* is every sweep coordinate but the
seed: the standard Fig. 9 ramp replicated across seeds, all fanned out
as one sweep batch (process pool + content-addressed cache: re-tuning an
overlapping grid only computes the new cells).

Each cell is scored on what an operator pays (the same scorecard
currency as :mod:`repro.capacity.cost`):

* **SLO violation seconds** — bucketed client latency above the SLO;
* **node-hours** — replica-count integral over the run;
* **reconfigurations** — each grow/shrink is operational work and risk;
* optionally **MTTR** under a chaos campaign (``chaos="crash"``).

The scalar objective is a weighted sum, cells rank by mean score across
seeds (95 % CIs reported), and the winner can be written out as a tuned
config (``repro tune --out``) that :mod:`repro.policy.bench` then proves
against the paper defaults.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from repro.metrics.aggregates import mean_ci
from repro.runner.sweep import KNOB_TAGS, SweepPoint, SweepSpec, run_sweep


@dataclass(frozen=True)
class TuneObjective:
    """Weights of the scalar score (lower is better), plus the capacity
    budget: the *winning* cell must keep its node-hours within
    ``node_hours_budget`` × the paper-default reference cell's (an SLO
    win bought with extra machines is not a tuning win)."""

    slo_latency_s: float = 0.25
    slo_weight: float = 1.0        # per SLO-violation second
    node_hour_weight: float = 10.0  # per replica node-hour
    reconfig_weight: float = 0.1   # per grow/shrink
    mttr_weight: float = 0.2       # per second of mean time to repair
    node_hours_budget: float = 1.02  # factor over the reference cell

    def to_record(self) -> dict:
        return asdict(self)


#: a cell's scorecard: :func:`score_run`'s keys, mean/CI over seeds
METRICS = ("slo_violation_s", "node_hours", "reconfigs", "score")

#: the :class:`SweepPoint` fields a tune cell varies: its ``point`` record
KNOBS = (*KNOB_TAGS, "controller")


def knob_record(point: SweepPoint) -> dict:
    return {name: getattr(point, name) for name in KNOBS}


def tune_cells(spec: SweepSpec, samples: int = 0) -> list[list[SweepPoint]]:
    """The sweep grid grouped into tune cells — each cell one point per
    seed — in grid order, or a random subsample of ``samples`` cells
    (search without replacement, in draw order)."""
    cells: dict[str, list[SweepPoint]] = {}
    for point in spec.grid():
        cells.setdefault(point.cell_label, []).append(point)
    grid = list(cells.values())
    if not grid:
        raise ValueError("empty tune grid (check the threshold bands)")
    if samples and samples < len(grid):
        grid = random.Random(0).sample(grid, samples)
    return grid


def paper_default(point: SweepPoint) -> SweepPoint:
    """``point`` under the paper's hand-set controller: every loop knob
    and the controller at their defaults (the tuner's reference cell)."""
    knobs = {f.name: f.default for f in fields(point) if f.name in KNOBS}
    return replace(point, **knobs)


def chaos_config(point: SweepPoint, campaign):
    """The optional resilience arm: the chaos section's constant-load
    campaign with this point's controller active (repairs and scaling
    then compete for the same machinery, which is what MTTR should
    feel)."""
    from repro.chaos.bench import CLIENTS, DURATION_S
    from repro.chaos.campaign import campaign_config

    cfg = campaign_config(
        campaign, seed=point.seed, clients=CLIENTS, duration_s=DURATION_S
    )
    cfg.managed = True
    return point.apply_loops(cfg)


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def score_run(run, objective: TuneObjective) -> dict[str, float]:
    """Scorecard metrics + scalar score for one completed ramp."""
    from repro.capacity.cost import slo_violation_time

    col = run.collector
    t_end = run.config.profile.duration_s + run.config.tail_s
    slo_s = slo_violation_time(
        col.latencies, 0.0, t_end, objective.slo_latency_s
    )
    node_seconds = sum(
        series.integral(0.0, t_end) for series in col.tier_replicas.values()
    )
    reconfigs = (
        run.app_tier.grows_completed
        + run.app_tier.shrinks_completed
        + run.db_tier.grows_completed
        + run.db_tier.shrinks_completed
    )
    node_hours = node_seconds / 3600.0
    return {
        "slo_violation_s": slo_s,
        "node_hours": node_hours,
        "reconfigs": float(reconfigs),
        "score": (
            objective.slo_weight * slo_s
            + objective.node_hour_weight * node_hours
            + objective.reconfig_weight * reconfigs
        ),
    }


def score_cell(runs, objective: TuneObjective, penalty: float = 0.0) -> dict:
    """Mean and 95 % CI over a cell's seeds of each :func:`score_run`
    metric; ``penalty`` is added to every seed's score."""
    per_seed = [score_run(run, objective) for run in runs]
    for scores in per_seed:
        scores["score"] += penalty
    return {
        name: mean_ci([scores[name] for scores in per_seed])
        for name in METRICS
    }


def run_tune(
    spec: SweepSpec,
    objective: Optional[TuneObjective] = None,
    runner=None,
    samples: int = 0,
    chaos: str = "",
) -> dict:
    """Execute the search as one sweep; returns the report (cells ranked
    best-first).  ``chaos`` names a chaos preset for the MTTR arm ("" =
    skip it)."""
    objective = objective or TuneObjective()
    grid = tune_cells(spec, samples)

    # The paper default always runs as the budget reference (a no-op when
    # it is already a grid cell: same label, same config).
    default = [paper_default(point) for point in grid[0]]
    scored = list(grid)
    if default[0].cell_label not in {cell[0].cell_label for cell in grid}:
        scored.append(default)

    extra = {}
    if chaos:
        from repro.chaos.campaign import PRESETS

        campaign = PRESETS[chaos]()
        extra = {
            f"{point.label}-chaos": chaos_config(point, campaign)
            for cell in scored
            for point in cell
        }
    result = run_sweep(
        spec, runner, points=[p for cell in scored for p in cell], extra=extra
    )
    runs = result.completed

    cells = []
    for cell in scored:
        record = {"point": knob_record(cell[0]), "label": cell[0].cell_label}
        penalty = 0.0
        if chaos:
            from repro.chaos.scorecard import score_run as chaos_score_run

            mttr = mean_ci(
                [chaos_score_run(runs[f"{p.label}-chaos"])["mttr_mean_s"] for p in cell]
            )
            if mttr["mean"] == mttr["mean"]:  # not NaN (NaN = no repair)
                penalty = objective.mttr_weight * mttr["mean"]
        record.update(score_cell([runs[p.label] for p in cell], objective, penalty))
        if chaos:
            record["mttr_s"] = mttr
        cells.append(record)

    cells.sort(key=lambda c: c["score"]["mean"])
    reference = next(
        c for c in cells if c["label"] == default[0].cell_label
    )
    # The winner is the best-scoring cell *inside the budget*: node-hours
    # within the factor of the reference AND no SLO regression.  An
    # unconstrained score minimum that buys its SLO win with capacity is
    # reported in the ranking but never selected.
    nh_cap = reference["node_hours"]["mean"] * objective.node_hours_budget
    slo_cap = reference["slo_violation_s"]["mean"]
    eligible = [
        c
        for c in cells
        if c["node_hours"]["mean"] <= nh_cap
        and c["slo_violation_s"]["mean"] <= slo_cap
    ]
    best = eligible[0] if eligible else reference
    report = {
        "spec": {
            **spec.to_record(), "samples": samples, "chaos": chaos,
            "cells": len(grid),
        },
        "objective": objective.to_record(),
        "cells": cells,
        "reference": reference,
        "best": best,
        "within_budget": len(eligible),
        "elapsed_s": result.elapsed_s,
    }
    if result.cache is not None:
        report["cache"] = {k: result.cache[k] for k in ("hits", "misses")}
    return report


# ----------------------------------------------------------------------
# Tuned-config artifact
# ----------------------------------------------------------------------
def write_tuned_config(report: dict, path: str | Path) -> Path:
    """The committed artifact: the winning parameters + provenance."""
    best = report["best"]
    record = {
        "point": best["point"],
        "metrics": {name: best[name] for name in METRICS},
        "objective": report["objective"],
        "spec": report["spec"],
    }
    path = Path(path)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def load_tuned_knobs(path: str | Path) -> dict:
    """The winning cell's :data:`KNOBS` from a tuned-config file
    (``SweepPoint(policy, seed, scale, cohort, **knobs)`` rebuilds it)."""
    return json.loads(Path(path).read_text())["point"]


def describe_knobs(knobs: dict) -> str:
    return (
        f"app band ({knobs['app_min']:.2f}, {knobs['app_max']:.2f}), "
        f"db band ({knobs['db_min']:.2f}, {knobs['db_max']:.2f}), "
        f"windows x{knobs['window_scale']:g}, "
        f"inhibition {knobs['inhibition_s']:.0f}s, "
        f"controller {knobs['controller']}"
    )


def render_report(report: dict, top: int = 10) -> str:
    lines = [
        f"Tuned {report['spec']['cells']} cells x "
        f"{len(report['spec']['seeds'])} seeds in "
        f"{report['elapsed_s']:.1f}s"
        + (
            f" (cache {report['cache']['hits']} hits / "
            f"{report['cache']['misses']} misses)"
            if "cache" in report
            else ""
        ),
        "",
        f"{'#':>3s} {'cell':<48s} {'score':>12s} {'SLO viol (s)':>14s} "
        f"{'node-hrs':>10s} {'reconf':>7s}",
    ]
    for i, cell in enumerate(report["cells"][:top]):
        lines.append(
            f"{i + 1:>3d} {cell['label']:<48s} "
            f"{cell['score']['mean']:>7.2f}±{cell['score']['ci95']:<4.2f} "
            f"{cell['slo_violation_s']['mean']:>8.1f}±"
            f"{cell['slo_violation_s']['ci95']:<5.1f} "
            f"{cell['node_hours']['mean']:>10.3f} "
            f"{cell['reconfigs']['mean']:>7.1f}"
        )
    if len(report["cells"]) > top:
        lines.append(f"    ... {len(report['cells']) - top} more cells")
    ref, best = report["reference"], report["best"]
    budget = report["objective"]["node_hours_budget"]
    lines += [
        "",
        f"reference (paper default): SLO "
        f"{ref['slo_violation_s']['mean']:.1f}s, "
        f"{ref['node_hours']['mean']:.3f} node-hrs "
        f"(budget {budget:g}x -> "
        f"{ref['node_hours']['mean'] * budget:.3f}); "
        f"{report['within_budget']} cell(s) within budget",
        f"best within budget: {describe_knobs(best['point'])} -> SLO "
        f"{best['slo_violation_s']['mean']:.1f}s, "
        f"{best['node_hours']['mean']:.3f} node-hrs",
    ]
    return "\n".join(lines)
