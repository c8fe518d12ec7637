"""``repro sweep`` — grid fan-out of experiments over the runner.

A sweep is the repo's generic parameter-exploration harness: the cross
product of seeds × time scales × replica policies × client cohort sizes,
each cell one :class:`~repro.jade.system.ExperimentConfig` ramp run,
fanned out through the :class:`~repro.runner.parallel.ExperimentRunner`
(process pool + content-addressed cache, so re-running a sweep with an
overlapping grid only computes the new cells).  Results flatten to one
row per cell — grid coordinates plus the standard run summary — written
as CSV (for plotting) and/or JSON (for programmatic diffing).

Policies:

* ``static``  — fixed one-replica tiers (the paper's unmanaged baseline);
* ``managed`` — the reactive self-sizing managers of §5.2;
* ``proactive`` — reactive managers plus the forecasting capacity planner.

The optional **fleet** axis crosses every cell with a node-market policy
(``--fleet on-demand,spot-heavy``): ``uniform`` is the paper's flat pool;
any other value names a :data:`repro.market.scenario.PRESETS` entry and
runs the cell on a heterogeneous fleet, adding a ``fleet_cost`` column.

The optional **controller** axis crosses every cell with a named
control-loop policy plugin (``--controllers
"default,queue-model,forecast:lead_s=90"``): ``default`` keeps each
cell's legacy reactor selection, any other value is a
:meth:`repro.policy.api.PolicyConfig.parse` string installed on both tier
loops.  Like the fleet/fluid axes, the label only grows a suffix off the
default, so pre-existing sweep labels (and cache keys) survive.

The **loop-knob** axes (the two tiers' threshold bands, the window
scale and the inhibition period) vary the paper's controller constants
the same way; :mod:`repro.policy.tune` scores a sweep of them.  Inverted
bands are dropped from the grid.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.jade.self_optimization import APP_LOOP_DEFAULTS, DB_LOOP_DEFAULTS
from repro.runner.parallel import ExperimentRunner

POLICIES = ("static", "managed", "proactive")

#: the grid coordinates a row records (after its label)
ROW_COORDINATES = (
    "policy", "seed", "scale", "cohort", "peak", "fleet", "regions", "controller"
)

#: per-cell summary columns (after the grid coordinates)
SUMMARY_FIELDS = (
    "completed",
    "failed",
    "throughput_rps",
    "latency_mean_ms",
    "latency_p95_ms",
    "app_replicas_max",
    "db_replicas_max",
    "node_cpu_mean",
    "node_mem_mean",
    "wall_time_s",
)

#: each loop knob's label tag, keyed by its :class:`SweepPoint` field
KNOB_TAGS = dict(
    app_max="am", app_min="an", db_max="dm", db_min="dn", window_scale="w",
    inhibition_s="i",
)


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: a (policy, seed, scale, cohort, fleet, regions)
    coordinate.

    ``fluid`` switches the cell's workload onto the hybrid fluid/discrete
    engine (``fluid_threshold`` users and above run as flow updates).
    ``regions > 1`` federates the cell: the same ramp runs in every
    region under the global load balancer (``repro sweep --regions``),
    and the row reports the federation's global rollup.  The loop knobs
    (threshold bands, window scale, inhibition period) default to the
    paper's constants (§5.2)."""

    policy: str
    seed: int
    scale: float
    cohort: int
    peak: int = 500
    fleet: str = "uniform"
    fluid: bool = False
    fluid_threshold: int = 0
    regions: int = 1
    controller: str = "default"
    app_max: float = APP_LOOP_DEFAULTS.max_threshold
    app_min: float = APP_LOOP_DEFAULTS.min_threshold
    db_max: float = DB_LOOP_DEFAULTS.max_threshold
    db_min: float = DB_LOOP_DEFAULTS.min_threshold
    window_scale: float = 1.0      # multiplies the 60 s / 90 s windows
    inhibition_s: float = 60.0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r} (choose from {POLICIES})"
            )
        if self.seed < 0 or self.scale <= 0 or self.cohort < 1:
            raise ValueError("need seed >= 0, scale > 0, cohort >= 1")
        if self.regions < 1:
            raise ValueError("need regions >= 1")
        if self.regions > 1 and self.fleet != "uniform":
            raise ValueError("federated cells support the uniform fleet only")
        if self.fleet != "uniform":
            from repro.market.scenario import PRESETS

            if self.fleet not in PRESETS:
                raise ValueError(
                    f"unknown fleet {self.fleet!r} (choose 'uniform' or one "
                    f"of {tuple(sorted(PRESETS))})"
                )
        if not 0.0 <= self.app_min < self.app_max <= 1.0:
            raise ValueError(f"bad app band ({self.app_min}, {self.app_max})")
        if not 0.0 <= self.db_min < self.db_max <= 1.0:
            raise ValueError(f"bad db band ({self.db_min}, {self.db_max})")
        if self.window_scale <= 0 or self.inhibition_s < 0:
            raise ValueError("need window_scale > 0 and inhibition_s >= 0")
        if self.controller != "default" or self._knob_suffix:
            if self.regions > 1:
                raise ValueError(
                    "federated cells support the default controller only"
                )
            if self.policy == "static":
                raise ValueError(
                    "controller policies need managed loops "
                    "(policy 'managed' or 'proactive')"
                )
        if self.controller != "default":
            from repro.policy.api import PolicyConfig

            try:
                PolicyConfig.parse(self.controller)
            except ValueError as exc:
                raise ValueError(f"unknown controller: {exc}") from None

    @property
    def _knob_suffix(self) -> str:
        """One label part per loop knob off the paper's value."""
        return "".join(
            f"-{KNOB_TAGS[f.name]}{getattr(self, f.name):g}"
            for f in fields(self)
            if f.name in KNOB_TAGS and getattr(self, f.name) != f.default
        )

    @property
    def label(self) -> str:
        return self._label(f"-s{self.seed}")

    @property
    def cell_label(self) -> str:
        """The label without the seed: names the cell each seed replicates."""
        return self._label("")

    def _label(self, seed: str) -> str:
        # fleet/fluid/knob suffixes only off the defaults, so pre-existing
        # sweep labels (and their cache keys) are unchanged
        suffix = "" if self.fleet == "uniform" else f"-f{self.fleet}"
        if self.fluid:
            suffix += f"-fluid{self.fluid_threshold}"
        if self.regions > 1:
            suffix += f"-r{self.regions}"
        suffix += self._knob_suffix
        if self.controller != "default":
            suffix += f"-p{self.controller}"
        return f"{self.policy}{seed}-x{self.scale:g}-c{self.cohort}{suffix}"

    def apply_loops(self, cfg):
        """Install this cell's controller on ``cfg``: the inhibition
        period and both tiers' loop configs (bands, windows, policy)."""
        from repro.policy.api import PolicyConfig

        pc = None
        if self.controller != "default":
            pc = PolicyConfig.parse(self.controller)
        cfg.inhibition_s = self.inhibition_s
        cfg.app_loop, cfg.db_loop = (
            replace(
                paper, max_threshold=hi, min_threshold=lo,
                window_s=paper.window_s * self.window_scale, policy=pc,
            )
            for paper, hi, lo in (
                (APP_LOOP_DEFAULTS, self.app_max, self.app_min),
                (DB_LOOP_DEFAULTS, self.db_max, self.db_min),
            )
        )
        return cfg

    def config(self):
        """The cell's experiment: the §5.2 ramp at this time scale and
        cohort size, under this replica policy and controller (and node
        market, if the fleet axis is off ``uniform``)."""
        from repro.jade.system import ExperimentConfig
        from repro.workload.profiles import RampProfile

        if self.regions > 1:
            from repro.federation.spec import global_ramp

            return global_ramp(
                regions=self.regions,
                scale=self.scale,
                seed=self.seed,
                peak=self.peak,
                managed=self.policy != "static",
                proactive=self.policy == "proactive",
                fluid=self.fluid,
                fluid_threshold=self.fluid_threshold,
                cohort=self.cohort,
            )
        market = None
        recovery = False
        if self.fleet != "uniform":
            from repro.market.scenario import PRESETS

            market = PRESETS[self.fleet]()
            recovery = True  # spot reclaims need the repair path armed
        cfg = ExperimentConfig(
            profile=RampProfile(
                base=80 * self.cohort,
                peak=self.peak * self.cohort,
                step_clients=21 * self.cohort,
                warmup_s=300.0 * self.scale,
                step_period_s=60.0 * self.scale,
                cooldown_s=300.0 * self.scale,
            ),
            seed=self.seed,
            managed=self.policy != "static",
            proactive=self.policy == "proactive",
            cohort=self.cohort,
            hardware_scale=float(self.cohort),
            recovery=recovery,
            market=market,
            fluid=self.fluid,
            fluid_threshold=self.fluid_threshold,
        )
        return self.apply_loops(cfg)


@dataclass(frozen=True)
class SweepSpec:
    """The grid: every combination of the axes, deterministic order
    (policy-major, then seed, scale, cohort, fleet, regions, the loop
    knobs, controller), inverted threshold bands left out."""

    seeds: tuple[int, ...] = (1, 2)
    scales: tuple[float, ...] = (0.1,)
    policies: tuple[str, ...] = ("static", "managed")
    cohorts: tuple[int, ...] = (1,)
    peak: int = 500
    fleets: tuple[str, ...] = ("uniform",)
    fluid: bool = False
    fluid_threshold: int = 0
    regions: tuple[int, ...] = (1,)
    controllers: tuple[str, ...] = ("default",)
    app_max: tuple[float, ...] = (APP_LOOP_DEFAULTS.max_threshold,)
    app_min: tuple[float, ...] = (APP_LOOP_DEFAULTS.min_threshold,)
    db_max: tuple[float, ...] = (DB_LOOP_DEFAULTS.max_threshold,)
    db_min: tuple[float, ...] = (DB_LOOP_DEFAULTS.min_threshold,)
    window_scales: tuple[float, ...] = (1.0,)
    inhibitions: tuple[float, ...] = (60.0,)

    def grid(self) -> list[SweepPoint]:
        return [
            SweepPoint(
                policy, seed, scale, cohort, self.peak, fleet,
                self.fluid, self.fluid_threshold, n_regions, controller,
                am, an, dm, dn, w, inh,
            )
            for policy in self.policies
            for seed in self.seeds
            for scale in self.scales
            for cohort in self.cohorts
            for fleet in self.fleets
            for n_regions in self.regions
            for am in self.app_max
            for an in self.app_min
            for dm in self.db_max
            for dn in self.db_min
            for w in self.window_scales
            for inh in self.inhibitions
            for controller in self.controllers
            if an < am and dn < dm
        ]

    def to_record(self) -> dict:
        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            record[f.name] = list(value) if isinstance(value, tuple) else value
        record["cells"] = len(self.grid())
        return record


@dataclass
class SweepResult:
    """Rows plus provenance, as written to the JSON output, and the
    completed runs behind them by label (not written)."""

    spec: SweepSpec
    rows: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    cache: Optional[dict] = None
    completed: dict = field(default_factory=dict, repr=False)

    def to_record(self) -> dict:
        record = {
            "spec": self.spec.to_record(),
            "rows": self.rows,
            "runs": len(self.rows),
            "elapsed_s": self.elapsed_s,
            "rows_per_s": (
                len(self.rows) / self.elapsed_s if self.elapsed_s > 0 else 0.0
            ),
        }
        if self.cache is not None:
            record["cache"] = self.cache
        return record


def run_sweep(
    spec: SweepSpec,
    runner: Optional[ExperimentRunner] = None,
    points: Optional[Sequence[SweepPoint]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> SweepResult:
    """Execute the grid (or just ``points``) through the runner; one row
    per cell, in the given order regardless of scheduling.  ``extra``
    labelled configs ride in the same batch: their runs come back in
    ``completed`` beside the cells', but make no row."""
    if runner is None:
        runner = ExperimentRunner()
    if points is None:
        points = spec.grid()
    configs = {point.label: point.config() for point in points}
    results, batch = runner.run_many_timed({**configs, **(extra or {})})
    rows = []
    for point in points:
        run = results[point.label]
        row = {"label": point.label}
        for name in ROW_COORDINATES:
            row[name] = getattr(point, name)
        summary = run.summary()
        for name in SUMMARY_FIELDS:
            if name == "wall_time_s":
                row[name] = run.wall_time_s
            else:
                row[name] = summary[name]
        # fleet-cost column: uniform-pool cost summed over regions on a
        # federated cell, the exact integrated cost on a market cell, the
        # flat uniform-pool price everywhere else
        if point.regions > 1:
            row["fleet_cost"] = run.fleet_cost
        elif "market" in run.extensions:
            row["fleet_cost"] = run.extensions["market"].fleet_cost
        else:
            from repro.market.costs import uniform_fleet_cost

            row["fleet_cost"] = uniform_fleet_cost(run.config)
        rows.append(row)
    cache = None
    if runner.cache is not None:
        cache = {
            "dir": str(runner.cache.root),
            "hits": batch["hits"],
            "misses": batch["misses"],
        }
    return SweepResult(
        spec=spec,
        rows=rows,
        elapsed_s=batch["elapsed_s"],
        cache=cache,
        completed=results,
    )


def write_sweep_csv(rows: Sequence[dict], path: str | Path) -> Path:
    """One row per grid cell, columns in stable order."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return path
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_sweep_json(result: SweepResult, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(result.to_record(), indent=2, default=float) + "\n"
    )
    return path
