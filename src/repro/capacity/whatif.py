"""The what-if engine: deterministic sim-fork evaluation of candidates.

Given a :class:`~repro.capacity.snapshot.SystemSnapshot` and a load
forecast, the engine *forks* the simulation: for each candidate replica
configuration it builds a fresh branch system (same seed, same hardware
and calibration, same pool size), forces the candidate's replica counts,
replays the forecast horizon, and measures what the paper's figures
measure — latency, per-tier utilization, SLO-violation time — plus the
node-seconds the candidate holds.

Two properties are load-bearing and tested:

* **Determinism** — a branch is reconstructed purely from the snapshot and
  forecast; evaluating the same fork twice yields *byte-identical*
  reports (:meth:`WhatIfEngine.report`), whether the branches run
  serially in-process, fan out over the process pool, or resolve from
  the result cache.
* **Parent isolation** — the engine only reads the snapshot; the parent
  run's kernel, collector and RNG streams are never touched, so a run
  with what-if evaluations in the middle finishes with metrics identical
  to one without.

The fork is a *state projection*, not an object-graph copy: the live
graph (queued kernel callbacks, in-flight requests, actuator processes
suspended mid-generator) is unpicklable and uncopyable, so the branch
restarts a fresh closed-loop population at the snapshot's observed size
and lets it warm up for ``warmup_s`` before the measurement window opens.

Because the projection is a value, a branch is a *pure function* of its
:class:`BranchSpec` — which buys the three speedups of this module:

* **parallel fan-out** — specs pickle across the
  :func:`~repro.runner.parallel.fanout_map` process pool, so a
  C-candidate decision costs roughly one branch of wall-clock;
* **warmed-branch memoization** — every candidate sharing a
  (snapshot-fingerprint, forecast) pair shares :func:`warm_fingerprint`;
  branch outcomes are content-addressed in the
  :class:`~repro.runner.cache.ResultCache`, so a repeated decision (the
  proactive manager re-planning under unchanged conditions, a re-run
  benchmark session) never replays the warmup — it unpickles;
* **dominance pruning** — with a cost model, the incumbent candidate is
  evaluated first and its total cost becomes a bound; other branches
  compute a provable lower bound on their final cost at checkpoints and
  stop early once they cannot beat the incumbent (node-seconds are exact
  upfront — branch replicas are fixed — and SLO-violation time only
  grows), so pruning can never change the selected candidate.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.capacity.cost import CostBreakdown, CostModel, slo_violation_time
from repro.capacity.forecast import ForecastSeries
from repro.capacity.snapshot import SystemSnapshot
from repro.runner.cache import ResultCache, describe_config
from repro.runner.parallel import default_workers, fanout_map
from repro.workload.calibration import Calibration
from repro.workload.profiles import PiecewiseProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.jade.system import ManagedSystem

#: nodes outside the resizable tiers (the PLB and C-JDBC balancers)
BALANCER_NODES = 2


@dataclass(frozen=True)
class Candidate:
    """One replica configuration to evaluate."""

    app_replicas: int
    db_replicas: int

    def __post_init__(self) -> None:
        if self.app_replicas < 1 or self.db_replicas < 1:
            raise ValueError("candidate replica counts must be >= 1")

    @property
    def label(self) -> str:
        return f"app{self.app_replicas}/db{self.db_replicas}"


def default_candidates(
    snapshot: SystemSnapshot, max_delta: int = 1
) -> list[Candidate]:
    """The neighbourhood of the current configuration: stay, grow either
    or both tiers, shrink either tier (one step each, deterministic
    order)."""
    base_app, base_db = snapshot.app_replicas, snapshot.db_replicas
    deltas = [(0, 0)]
    for d in range(1, max_delta + 1):
        deltas += [(d, 0), (0, d), (d, d), (-d, 0), (0, -d)]
    seen: set[tuple[int, int]] = set()
    out = []
    for da, db in deltas:
        app = max(1, base_app + da)
        dbr = max(1, base_db + db)
        if (app, dbr) in seen:
            continue
        seen.add((app, dbr))
        out.append(Candidate(app, dbr))
    return out


@dataclass(frozen=True)
class BranchSpec:
    """Everything one branch simulation depends on — and nothing else.

    A spec is a pure value: picklable (it crosses the process pool) and
    canonically describable (it addresses the result cache).  It projects
    the snapshot down to the fields a branch actually reads — replica
    targets, client population, hardware, seed — and normalizes the
    forecast to offsets from the snapshot instant, so two decisions taken
    at different wall-clock times under identical conditions share cache
    entries.
    """

    seed: int
    clients: int
    pool_nodes: int
    node_speed: float
    thrashing: bool
    calibration: Calibration
    #: forecast as (seconds after the snapshot, predicted clients)
    forecast: tuple[tuple[float, float], ...]
    candidate: Candidate
    #: the parent configuration (reconfiguration pricing + incumbent id)
    base_app: int
    base_db: int
    horizon_s: float
    warmup_s: float
    latency_bucket_s: float
    slo_latency_s: float
    #: dominance pruning: stop once the branch's cost lower bound exceeds
    #: this (None = run the full horizon)
    prune_bound: Optional[float] = None
    prune_check_s: float = 15.0
    #: cost model used for the in-branch lower bound (only when pruning)
    cost_model: Optional[CostModel] = None


def warm_fingerprint(spec: BranchSpec) -> str:
    """Identity of the warmed branch state a spec replays into.

    Hashes exactly the fields shared by every candidate of one decision —
    the snapshot projection, the normalized forecast, and the warmup
    window — so all candidates of a (snapshot, forecast) pair map to one
    fingerprint, and a repeated decision under unchanged conditions maps
    to the same one.  The branch cache key refines this with the
    candidate and measurement parameters.
    """
    shared = {
        "seed": spec.seed,
        "clients": spec.clients,
        "pool_nodes": spec.pool_nodes,
        "node_speed": spec.node_speed,
        "thrashing": spec.thrashing,
        "calibration": json.loads(describe_config(spec.calibration)),
        "forecast": [list(point) for point in spec.forecast],
        "warmup_s": spec.warmup_s,
        "horizon_s": spec.horizon_s,
    }
    blob = json.dumps(shared, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class BranchOutcome:
    """What one candidate did over the forecast horizon."""

    candidate: Candidate
    feasible: bool = True
    error: str = ""
    latency_mean_s: float = float("nan")
    latency_p95_s: float = float("nan")
    slo_violation_s: float = float("nan")
    throughput_rps: float = float("nan")
    app_cpu_mean: float = float("nan")
    db_cpu_mean: float = float("nan")
    node_seconds: float = float("nan")
    completed: int = 0
    failed: int = 0
    #: dominance pruning stopped this branch before the full horizon (its
    #: recorded cost is a certified lower bound that already exceeds the
    #: incumbent's total, so it can never be the selected candidate)
    pruned: bool = False
    #: how much of the horizon was actually measured
    measured_horizon_s: float = float("nan")
    cost: Optional[CostBreakdown] = field(default=None)

    def to_record(self) -> dict:
        """Round-stable flat dict; byte-identical across identical forks."""
        record = {
            "candidate": self.candidate.label,
            "app_replicas": self.candidate.app_replicas,
            "db_replicas": self.candidate.db_replicas,
            "feasible": self.feasible,
            "error": self.error,
            "latency_mean_s": round(self.latency_mean_s, 6),
            "latency_p95_s": round(self.latency_p95_s, 6),
            "slo_violation_s": round(self.slo_violation_s, 6),
            "throughput_rps": round(self.throughput_rps, 6),
            "app_cpu_mean": round(self.app_cpu_mean, 6),
            "db_cpu_mean": round(self.db_cpu_mean, 6),
            "node_seconds": round(self.node_seconds, 6),
            "completed": self.completed,
            "failed": self.failed,
            "pruned": self.pruned,
            "measured_horizon_s": round(self.measured_horizon_s, 6),
        }
        if self.cost is not None:
            record["cost"] = self.cost.to_record()
        return record


# ----------------------------------------------------------------------
# The branch worker: a pure function of its spec (pool entry point)
# ----------------------------------------------------------------------
def _spec_profile(spec: BranchSpec) -> PiecewiseProfile:
    """Branch time runs from 0: hold the snapshot load through the
    warmup, then replay the forecast over the horizon."""
    points: list[tuple[float, int]] = [(0.0, int(spec.clients))]
    for offset_t, value in spec.forecast:
        offset = spec.warmup_s + max(0.0, offset_t)
        if offset >= spec.warmup_s + spec.horizon_s:
            break
        points.append((offset, max(0, round(value))))
    return PiecewiseProfile(points, duration_s=spec.warmup_s + spec.horizon_s)


def _settle(branch: "ManagedSystem", tier, step_s: float = 1.0) -> None:
    """Advance the branch kernel until the tier's in-flight
    reconfiguration finishes (install + start + sync take simulated
    time that must elapse inside the warmup)."""
    while tier.busy:
        branch.kernel.run(until=branch.kernel.now + step_s)


def _force_replicas(branch: "ManagedSystem", candidate: Candidate) -> bool:
    """Grow the branch's tiers to the candidate's counts before the
    measurement window; False when the pool cannot host the candidate."""
    for tier, target in (
        (branch.app_tier, candidate.app_replicas),
        (branch.db_tier, candidate.db_replicas),
    ):
        while tier.replica_count < target:
            if not tier.grow():
                return False
            _settle(branch, tier)
            if tier.grow_failures:
                return False
    return True


def _measure(
    branch: "ManagedSystem",
    outcome: BranchOutcome,
    spec: BranchSpec,
    t0: float,
    t1: float,
) -> None:
    col = branch.collector
    window = col.latencies.window(t0, t1)
    values = window.values
    if len(values):
        import numpy as np

        outcome.latency_mean_s = float(values.mean())
        outcome.latency_p95_s = float(np.percentile(values, 95))
    outcome.slo_violation_s = slo_violation_time(
        col.latencies,
        t0,
        t1,
        spec.slo_latency_s,
        bucket_s=spec.latency_bucket_s,
    )
    outcome.throughput_rps = len(values) / (t1 - t0)
    outcome.completed = int(len(values))
    outcome.failed = int(len(col.failures.window(t0, t1)))
    app_cpu = col.tier_cpu.get("application")
    db_cpu = col.tier_cpu.get("database")
    if app_cpu is not None:
        outcome.app_cpu_mean = app_cpu.window(t0, t1).mean()
    if db_cpu is not None:
        outcome.db_cpu_mean = db_cpu.window(t0, t1).mean()
    node_seconds = BALANCER_NODES * (t1 - t0)
    for series in col.tier_replicas.values():
        node_seconds += series.integral(t0, t1)
    outcome.node_seconds = node_seconds
    outcome.measured_horizon_s = t1 - t0


def _full_horizon_node_seconds(
    branch: "ManagedSystem", spec: BranchSpec, t0: float, t: float
) -> float:
    """Exact node-seconds over the *full* measurement window, known at
    any checkpoint ``t``: the branch is unmanaged, so replica counts are
    constant after forcing and the remainder extrapolates linearly."""
    end = spec.warmup_s + spec.horizon_s
    node_seconds = BALANCER_NODES * (end - t0)
    for series in branch.collector.tier_replicas.values():
        node_seconds += series.integral(t0, t)
        node_seconds += series.value_at(t) * (end - t)
    return node_seconds


def _cost_lower_bound(
    branch: "ManagedSystem", spec: BranchSpec, t: float
) -> tuple[float, float]:
    """(lower bound on the branch's final total cost, complete-bucket SLO
    violation so far).

    Sound because every term is monotone or exact: node cost is exact
    upfront (constant replicas), reconfiguration cost is exact, and the
    bucketed SLO-violation time over *complete* buckets can only grow as
    the horizon extends.
    """
    model = spec.cost_model
    assert model is not None
    t0 = spec.warmup_s
    # Bucket edges are absolute (multiples of bucket_s from 0, see
    # TimeSeries.bucket_mean): only buckets whose right edge is behind the
    # checkpoint have their final sample set, so cut on the last edge.
    t_complete = max(
        t0, math.floor(t / spec.latency_bucket_s + 1e-9) * spec.latency_bucket_s
    )
    violation = slo_violation_time(
        branch.collector.latencies,
        t0,
        t_complete,
        spec.slo_latency_s,
        bucket_s=spec.latency_bucket_s,
    )
    reconfigs = abs(spec.candidate.app_replicas - spec.base_app) + abs(
        spec.candidate.db_replicas - spec.base_db
    )
    node_hours = _full_horizon_node_seconds(branch, spec, t0, t) / 3600.0
    bound = (
        node_hours * model.node_hour_cost
        + reconfigs * model.reconfig_cost
        + violation * model.slo_violation_cost_per_s
    )
    return bound, violation


def evaluate_branch(spec: BranchSpec) -> BranchOutcome:
    """Run one candidate branch to completion (or to its pruning point).

    Module-level and side-effect free so it can serve as the process-pool
    entry point; the returned outcome is deterministic in ``spec`` alone,
    which is what makes parallel, serial and cached evaluation
    byte-identical.
    """
    from repro.jade.system import ExperimentConfig, ManagedSystem

    config = ExperimentConfig(
        seed=spec.seed,
        managed=False,
        profile=_spec_profile(spec),
        pool_nodes=spec.pool_nodes,
        node_speed=spec.node_speed,
        thrashing=spec.thrashing,
        calibration=spec.calibration,
        sample_nodes=False,
        tail_s=0.0,
    )
    branch = ManagedSystem(config)
    outcome = BranchOutcome(spec.candidate)
    if not _force_replicas(branch, spec.candidate):
        outcome.feasible = False
        outcome.error = "no-free-node"
        return outcome
    end = spec.warmup_s + spec.horizon_s
    if spec.prune_bound is None or spec.cost_model is None:
        branch.run(duration_s=end)
        _measure(branch, outcome, spec, spec.warmup_s, end)
        return outcome

    # Segmented run with dominance checks.  The segmentation itself is
    # invisible (the kernel processes the same events in the same order);
    # only an actual early exit changes what the record measures.
    branch.start_all(end)
    branch.advance(spec.warmup_s)
    t = spec.warmup_s
    pruned_at: Optional[float] = None
    while t < end:
        t_next = min(end, t + spec.prune_check_s)
        branch.kernel.run(until=t_next)
        t = t_next
        if t >= end:
            break
        bound, _ = _cost_lower_bound(branch, spec, t)
        if bound > spec.prune_bound:
            pruned_at = t
            break
    branch.emulator.stop()
    if pruned_at is None:
        _measure(branch, outcome, spec, spec.warmup_s, end)
        return outcome
    # Pruned: record partial measurements, but price the candidate on its
    # certified lower bound — full-horizon node-seconds plus the
    # complete-bucket violation so far — so a later cost_model.score()
    # reproduces a total that provably exceeds the incumbent's.
    _, violation = _cost_lower_bound(branch, spec, pruned_at)
    _measure(branch, outcome, spec, spec.warmup_s, pruned_at)
    outcome.pruned = True
    outcome.node_seconds = _full_horizon_node_seconds(
        branch, spec, spec.warmup_s, pruned_at
    )
    outcome.slo_violation_s = violation
    return outcome


class WhatIfEngine:
    """Builds and runs branch simulations for candidate configurations.

    ``parallel=True`` fans candidate branches out over the
    :mod:`repro.runner` process pool; ``cache`` memoizes warmed-branch
    outcomes content-addressed in a :class:`ResultCache`; ``prune=True``
    evaluates the incumbent first and stops dominated branches early.
    All three are off by default (the PR-2 serial semantics) and none of
    them changes a single byte of :meth:`report` for the candidates that
    run to completion — pruning is the only knob that changes records,
    and only for candidates it can prove are not selectable.
    """

    def __init__(
        self,
        horizon_s: float = 120.0,
        warmup_s: float = 60.0,
        step_s: float = 15.0,
        cost_model: Optional[CostModel] = None,
        latency_bucket_s: float = 5.0,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        prune: bool = False,
        prune_check_s: float = 15.0,
    ) -> None:
        if horizon_s <= 0 or warmup_s <= 0:
            raise ValueError("horizon and warmup must be positive")
        if prune_check_s <= 0:
            raise ValueError("prune check interval must be positive")
        self.horizon_s = horizon_s
        self.warmup_s = warmup_s
        self.step_s = step_s
        self.cost_model = cost_model
        self.latency_bucket_s = latency_bucket_s
        self.parallel = parallel
        self.max_workers = max_workers or default_workers()
        self.cache = cache
        self.prune = prune
        self.prune_check_s = prune_check_s
        self.branches_run = 0
        self.evaluations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.branches_pruned = 0
        #: warm fingerprint of the last evaluation's branch state
        self.last_warm_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    def branch_spec(
        self,
        snapshot: SystemSnapshot,
        forecast: ForecastSeries,
        candidate: Candidate,
    ) -> BranchSpec:
        """Project (snapshot, forecast, candidate) down to the picklable
        value a branch is a pure function of."""
        return BranchSpec(
            seed=snapshot.seed,
            clients=int(snapshot.clients),
            pool_nodes=snapshot.pool_nodes,
            node_speed=snapshot.node_speed,
            thrashing=snapshot.thrashing,
            calibration=snapshot.calibration,
            forecast=tuple((t - snapshot.t, float(v)) for t, v in forecast),
            candidate=candidate,
            base_app=snapshot.app_replicas,
            base_db=snapshot.db_replicas,
            horizon_s=self.horizon_s,
            warmup_s=self.warmup_s,
            latency_bucket_s=self.latency_bucket_s,
            slo_latency_s=(
                self.cost_model.slo_latency_s if self.cost_model else 0.5
            ),
            prune_check_s=self.prune_check_s,
        )

    def evaluate(
        self,
        snapshot: SystemSnapshot,
        forecast: ForecastSeries,
        candidates: Optional[Sequence[Candidate]] = None,
    ) -> list[BranchOutcome]:
        """Run one branch per candidate; returns outcomes in candidate
        order, scored by the cost model when one is configured."""
        if candidates is None:
            candidates = default_candidates(snapshot)
        self.evaluations += 1
        specs = [
            self.branch_spec(snapshot, forecast, candidate)
            for candidate in candidates
        ]
        self.last_warm_fingerprint = (
            warm_fingerprint(specs[0]) if specs else None
        )
        outcomes: list[Optional[BranchOutcome]] = [None] * len(specs)
        rest = list(range(len(specs)))
        bound: Optional[float] = None
        if self.prune and self.cost_model is not None and len(specs) > 1:
            incumbent = self._incumbent_index(candidates, snapshot)
            outcome = self._evaluate_specs([specs[incumbent]])[0]
            outcomes[incumbent] = outcome
            rest.remove(incumbent)
            score = self.cost_model.score(
                outcome, snapshot.app_replicas, snapshot.db_replicas
            )
            if outcome.feasible and math.isfinite(score.total):
                bound = score.total
        if bound is not None:
            rest_specs = [
                replace(
                    specs[i], prune_bound=bound, cost_model=self.cost_model
                )
                for i in rest
            ]
        else:
            rest_specs = [specs[i] for i in rest]
        for i, outcome in zip(rest, self._evaluate_specs(rest_specs)):
            outcomes[i] = outcome
        result = [o for o in outcomes if o is not None]
        self.branches_pruned += sum(1 for o in result if o.pruned)
        if self.cost_model is not None:
            for outcome in result:
                outcome.cost = self.cost_model.score(
                    outcome, snapshot.app_replicas, snapshot.db_replicas
                )
        return result

    @staticmethod
    def _incumbent_index(
        candidates: Sequence[Candidate], snapshot: SystemSnapshot
    ) -> int:
        """The pruning bound's source: the stay-as-you-are candidate when
        present, else the first (deterministic either way)."""
        for i, candidate in enumerate(candidates):
            if (
                candidate.app_replicas == snapshot.app_replicas
                and candidate.db_replicas == snapshot.db_replicas
            ):
                return i
        return 0

    def _evaluate_specs(
        self, specs: Sequence[BranchSpec]
    ) -> list[BranchOutcome]:
        """Cache-aware, order-preserving fan-out of branch workers."""
        outcomes: dict[int, BranchOutcome] = {}
        pending: list[tuple[int, BranchSpec, Optional[str]]] = []
        for i, spec in enumerate(specs):
            if self.cache is not None:
                key = self.cache.key_for(spec)
                hit = self.cache.load(key)
                if hit is not None:
                    self.cache_hits += 1
                    outcomes[i] = hit
                    continue
                self.cache_misses += 1
                pending.append((i, spec, key))
            else:
                pending.append((i, spec, None))
        if pending:
            fresh = fanout_map(
                evaluate_branch,
                [spec for _, spec, _ in pending],
                max_workers=self.max_workers,
                parallel=self.parallel,
            )
            for (i, spec, key), outcome in zip(pending, fresh):
                self.branches_run += 1
                if self.cache is not None and key is not None:
                    self.cache.store(key, outcome, config=spec)
                outcomes[i] = outcome
        return [outcomes[i] for i in range(len(specs))]

    def best(self, outcomes: Sequence[BranchOutcome]) -> BranchOutcome:
        """Lowest total cost; ties break towards fewer replicas, then the
        stable candidate order (deterministic).  Pruned outcomes carry a
        certified lower bound strictly above the incumbent's total, so
        they rank below it without special-casing."""
        feasible = [o for o in outcomes if o.feasible]
        if not feasible:
            raise ValueError("no feasible candidate")
        if self.cost_model is None:
            raise ValueError("ranking candidates requires a cost model")
        return min(
            feasible,
            key=lambda o: (
                o.cost.total,
                o.candidate.app_replicas + o.candidate.db_replicas,
                o.candidate.label,
            ),
        )

    def report(self, outcomes: Sequence[BranchOutcome]) -> str:
        """Canonical JSON for the outcome list — the byte-identical
        artifact the determinism guarantee is stated over."""
        return json.dumps(
            [o.to_record() for o in outcomes], sort_keys=True, indent=2
        )


def run_to_fork(system: "ManagedSystem", t: float) -> SystemSnapshot:
    """Start a freshly-built system (:meth:`ManagedSystem.start_all`:
    every extension, the sampler, the probes and the emulator), advance
    simulated time to ``t``, and capture the fork snapshot.

    Convenience for the CLI/examples: the parent is left mid-run (managers
    and emulator active) so callers can inspect it, but :meth:`ManagedSystem.run`
    must not be called on it afterwards — it would restart the managers.

    **Precondition — a freshly built system.**  ``run_to_fork`` performs
    the manager/emulator start-up itself, so the system passed in must
    never have been advanced or started: construct ``ManagedSystem(config)``
    and hand it over without calling ``run()``, ``kernel.run()`` or
    ``emulator.start()`` first.  Anything else would double-start the
    periodic control loops and corrupt the run; the guard below rejects
    it with an explicit error instead.
    """
    if (
        system.kernel.now > 0.0
        or system.kernel.events_processed > 0
        or system.emulator._task is not None
    ):
        raise ValueError(
            "run_to_fork needs a freshly built system: it starts the managers "
            "and client emulator itself before advancing to the fork point, "
            "so the system must not have been run or started. Build a new "
            "ManagedSystem(config) and pass it here without calling run(), "
            "kernel.run() or emulator.start() first."
        )
    system.start_all()
    system.advance(t)
    return SystemSnapshot.capture(system)
