"""The ``repro bench`` engine benchmark: the one entry point that runs,
gates and re-records every section of BENCH_engine.json.

The always-on **micro** layer times the kernel and PS-CPU scenarios from
``benchmarks/bench_micro_engine.py`` best-of-N against the committed
pre-optimization baselines (events/s, jobs/s, speedups).  Every other
section — ramp, whatif, sweep, chaos, deploy, market, fluid, policy,
federation — lives in the :data:`SECTIONS` registry, which also says how
``repro bench`` prints and gates it.  A full committed report is one
``repro bench --out BENCH_engine.json`` invocation; ``--skip NAME``
leaves a section out (``--micro-only`` leaves them all out), and
``--only NAME --out BENCH_engine.json`` re-records one section in place.
``repro bench --only NAME --smoke`` is a subsystem's CI gate: the section
at its CI size, its render, its assertions and ``NAME-smoke: PASS``.

The CI perf-smoke job runs ``repro bench --check BENCH_engine.json`` and
fails if the fresh micro timings drift more than the tolerance from the
committed numbers.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.chaos import bench as chaos_bench
from repro.deploy import bench as deploy_bench
from repro.federation import bench as federation_bench
from repro.market import bench as market_bench
from repro.metrics.aggregates import mean_ci
from repro.policy import bench as policy_bench
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner
from repro.workload import fluid_bench

#: wall-clock of the micro scenarios before the engine fast-path work
#: (event freelist, bucketed timers, token-guarded PS wakes), measured
#: best-of-10 on the reference machine.  The ``speedup_vs_baseline``
#: figures in BENCH_engine.json are relative to these.
BASELINES_S = {
    "kernel_10k_events": 0.034357,
    "ps_cpu_5k_jobs": 0.069714,
}


# ----------------------------------------------------------------------
# Micro scenarios (benchmarks/bench_micro_engine.py times the same ones)
# ----------------------------------------------------------------------
def scenario_kernel() -> int:
    """Schedule + dispatch 10k events."""
    from repro.simulation import SimKernel

    kernel = SimKernel()
    sink = []
    for i in range(10_000):
        kernel.schedule(float(i % 100) * 0.01, sink.append, i)
    kernel.run()
    return len(sink)


def ps_workload() -> tuple[np.ndarray, np.ndarray]:
    """Arrival times and demands of 5k staggered jobs (seeded)."""
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(0.01, size=5000))
    return arrivals, rng.gamma(4.0, 0.01 / 4.0, size=5000)


def scenario_ps(arrivals, demands) -> int:
    """Run a :func:`ps_workload` through one processor-sharing CPU."""
    from repro.simulation import CpuJob, PsCpu, SimKernel

    kernel = SimKernel()
    cpu = PsCpu(kernel)
    for t, d in zip(arrivals, demands):
        kernel.schedule_at(float(t), cpu.submit, CpuJob(kernel, float(d)))
    kernel.run()
    return cpu.completed


def _best_of(fn, rounds: int) -> float:
    best = math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_micro(rounds: int = 10) -> dict[str, dict[str, float]]:
    """Time both micro scenarios; returns the BENCH_engine ``micro`` block."""
    arrivals, demands = ps_workload()
    kernel_s = _best_of(scenario_kernel, rounds)
    ps_s = _best_of(lambda: scenario_ps(arrivals, demands), rounds)
    return {
        "kernel_10k_events": {
            "baseline_s": BASELINES_S["kernel_10k_events"],
            "best_s": kernel_s,
            "events_per_s": 10_000 / kernel_s,
            "speedup_vs_baseline": BASELINES_S["kernel_10k_events"] / kernel_s,
        },
        "ps_cpu_5k_jobs": {
            "baseline_s": BASELINES_S["ps_cpu_5k_jobs"],
            "best_s": ps_s,
            "jobs_per_s": 5000 / ps_s,
            "speedup_vs_baseline": BASELINES_S["ps_cpu_5k_jobs"] / ps_s,
        },
    }


# ----------------------------------------------------------------------
# Multi-seed ramp replication
# ----------------------------------------------------------------------
def _ramp_config(
    managed: bool,
    seed: int,
    scale: float,
    fluid: bool = False,
    fluid_threshold: int = 0,
):
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import RampProfile

    return ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=managed,
        fluid=fluid,
        fluid_threshold=fluid_threshold,
    )


def run_ramp_replication(
    seeds: Sequence[int],
    scale: float,
    runner: ExperimentRunner,
    fluid: bool = False,
    fluid_threshold: int = 0,
) -> dict:
    """Run the managed/static ramp pair for every seed and aggregate.

    With a cache attached the batch runs twice — a cold pass that computes
    (or reuses an earlier session's entries) and a warm pass that must
    resolve entirely from the cache — and the report records per-pass
    hit/miss deltas.  The committed BENCH_engine.json therefore always
    shows ``warm.hits > 0``: the warm pass is what a re-run benchmark
    session actually costs.
    """
    configs = {}
    for seed in seeds:
        configs[f"managed-{seed}"] = _ramp_config(
            True, seed, scale, fluid, fluid_threshold
        )
        configs[f"static-{seed}"] = _ramp_config(
            False, seed, scale, fluid, fluid_threshold
        )

    results, cold = runner.run_many_timed(configs)
    warm = None
    if runner.cache is not None:
        results, warm = runner.run_many_timed(configs)

    arms = {}
    for arm in ("managed", "static"):
        summaries = [results[f"{arm}-{s}"].summary() for s in seeds]
        walls = [results[f"{arm}-{s}"].wall_time_s for s in seeds]
        arms[arm] = {
            "throughput_rps": mean_ci([s["throughput_rps"] for s in summaries]),
            "latency_mean_ms": mean_ci([s["latency_mean_ms"] for s in summaries]),
            "completed": mean_ci([s["completed"] for s in summaries]),
            "wall_time_s": mean_ci(walls),
        }
    serial_estimate = sum(r.wall_time_s for r in results.values())
    block = {
        "scale": scale,
        "fluid": fluid,
        "seeds": list(seeds),
        "arms": arms,
        "runs": len(results),
        "parallel_elapsed_s": cold["elapsed_s"],
        "serial_estimate_s": serial_estimate,
    }
    if runner.cache is not None:
        block["cache"] = {
            "dir": str(runner.cache.root),
            "cold": cold,
            "warm": warm,
            # headline numbers: what a re-run against this cache reports
            "hits": warm["hits"],
            "misses": warm["misses"],
        }
    return block


# ----------------------------------------------------------------------
# What-if decision latency + sweep throughput
# ----------------------------------------------------------------------
def _whatif_fixture():
    """A deterministic mid-ramp fork: (snapshot, forecast)."""
    from repro.capacity.whatif import run_to_fork
    from repro.jade.system import ExperimentConfig, ManagedSystem
    from repro.workload.profiles import RampProfile

    config = ExperimentConfig(
        seed=7,
        profile=RampProfile(
            base=80,
            peak=260,
            step_period_s=15.0,
            warmup_s=60.0,
            cooldown_s=60.0,
        ),
    )
    snapshot = run_to_fork(ManagedSystem(config), 150.0)
    forecast = [(150.0 + 15.0 * i, 200.0 + 5.0 * i) for i in range(4)]
    return snapshot, forecast


def _whatif_candidates(n: int):
    """The first ``n`` of a fixed candidate ladder (deterministic)."""
    from repro.capacity.whatif import Candidate

    ladder = [
        (1, 1), (2, 1), (1, 2), (2, 2),
        (3, 1), (1, 3), (3, 2), (2, 3),
        (3, 3), (4, 1), (1, 4), (4, 2),
    ]
    if n > len(ladder):
        raise ValueError(f"at most {len(ladder)} candidates supported")
    return [Candidate(app, db) for app, db in ladder[:n]]


def run_whatif_bench(candidates: int = 8) -> dict:
    """Time one C-candidate proactive decision three ways — serial (the
    pre-optimization path), parallel against a cold cache, and memoized
    against the warm cache — asserting the reports stay byte-identical.

    Returns the BENCH_engine ``whatif`` block.  The headline
    ``speedup_memoized`` is the decision-latency win of a repeated
    decision under unchanged conditions (the proactive manager re-planning,
    a re-run benchmark session); ``speedup_parallel`` is the cold-cache
    pool fan-out win and degrades to ~1x on single-core runners.
    """
    import shutil
    import tempfile

    from repro.capacity.cost import CostModel
    from repro.capacity.whatif import WhatIfEngine
    from repro.runner.parallel import default_workers

    snapshot, forecast = _whatif_fixture()
    cands = _whatif_candidates(candidates)

    def make_engine(**kwargs) -> WhatIfEngine:
        return WhatIfEngine(
            horizon_s=45.0, warmup_s=40.0, cost_model=CostModel(), **kwargs
        )

    def timed(engine):
        t0 = time.perf_counter()
        outcomes = engine.evaluate(snapshot, forecast, cands)
        elapsed = time.perf_counter() - t0
        return outcomes, elapsed

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-whatif-"))
    try:
        serial_engine = make_engine(parallel=False)
        serial_out, serial_s = timed(serial_engine)
        serial_report = serial_engine.report(serial_out)

        workers = min(8, max(2, default_workers()))
        cold_engine = make_engine(
            parallel=True, max_workers=workers, cache=ResultCache(cache_dir)
        )
        cold_out, parallel_s = timed(cold_engine)

        warm_engine = make_engine(
            parallel=True, max_workers=workers, cache=ResultCache(cache_dir)
        )
        warm_out, memoized_s = timed(warm_engine)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    byte_identical = (
        cold_engine.report(cold_out) == serial_report
        and warm_engine.report(warm_out) == serial_report
    )
    winner = serial_engine.best(serial_out).candidate.label
    same_winner = (
        cold_engine.best(cold_out).candidate.label == winner
        and warm_engine.best(warm_out).candidate.label == winner
    )
    return {
        "candidates": candidates,
        "serial_s": serial_s,
        "parallel_cold_s": parallel_s,
        "memoized_s": memoized_s,
        "speedup_parallel": serial_s / parallel_s,
        "speedup_memoized": serial_s / memoized_s,
        "byte_identical": byte_identical,
        "same_winner": same_winner,
        "winner": winner,
        "workers": workers,
        "memoized_cache_hits": warm_engine.cache_hits,
        "memoized_branches_run": warm_engine.branches_run,
    }


def run_sweep_bench() -> dict:
    """Throughput of a small sweep grid, cold then warm (cache-resolved).

    Returns the BENCH_engine ``sweep`` block."""
    import shutil
    import tempfile

    from repro.runner.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        seeds=(1, 2),
        scales=(0.05,),
        policies=("static", "managed"),
        cohorts=(1,),
    )
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        runner = ExperimentRunner(cache=ResultCache(cache_dir))
        cold = run_sweep(spec, runner)
        warm = run_sweep(spec, runner)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "spec": spec.to_record(),
        "cold": {
            "elapsed_s": cold.elapsed_s,
            "rows_per_s": len(cold.rows) / cold.elapsed_s,
            "cache": cold.cache,
        },
        "warm": {
            "elapsed_s": warm.elapsed_s,
            "rows_per_s": len(warm.rows) / warm.elapsed_s,
            "cache": warm.cache,
        },
        "rows_identical": cold.rows == warm.rows,
    }


# ----------------------------------------------------------------------
# Section registry + entry points
# ----------------------------------------------------------------------
def _run_ramp(
    *, seeds, parallel, use_cache, scale, fluid, fluid_threshold, **_
) -> dict:
    runner = ExperimentRunner(
        cache=ResultCache() if use_cache else None, parallel=parallel
    )
    return run_ramp_replication(
        seeds, scale, runner, fluid=fluid, fluid_threshold=fluid_threshold
    )


def _render_ramp(ramp: dict) -> str:
    lines = [
        f"Ramp pair x{len(ramp['seeds'])} seeds (scale {ramp['scale']}): "
        f"{ramp['parallel_elapsed_s']:.1f}s elapsed "
        f"(serial estimate {ramp['serial_estimate_s']:.1f}s)"
    ]
    for arm, stats in ramp["arms"].items():
        thr = stats["throughput_rps"]
        lat = stats["latency_mean_ms"]
        lines.append(
            f"  {arm:<8s} throughput {thr['mean']:.2f} +/- {thr['ci95']:.2f} "
            f"req/s, latency {lat['mean']:.1f} +/- {lat['ci95']:.1f} ms"
        )
    if "cache" in ramp:
        c = ramp["cache"]
        lines.append(
            f"  cache: cold {c['cold']['hits']} hits / "
            f"{c['cold']['misses']} misses, warm {c['warm']['hits']} hits "
            f"/ {c['warm']['misses']} misses ({c['dir']})"
        )
    return "\n".join(lines)


def _render_whatif(w: dict) -> str:
    return (
        f"What-if {w['candidates']}-candidate decision: "
        f"serial {w['serial_s']:.2f}s, parallel cold "
        f"{w['parallel_cold_s']:.2f}s ({w['speedup_parallel']:.2f}x), "
        f"memoized {w['memoized_s']:.3f}s ({w['speedup_memoized']:.1f}x); "
        f"byte-identical: {w['byte_identical']}, winner {w['winner']}"
    )


def _render_sweep(s: dict) -> str:
    return (
        f"Sweep {s['spec']['cells']} cells: cold "
        f"{s['cold']['rows_per_s']:.1f} rows/s, warm "
        f"{s['warm']['rows_per_s']:.0f} rows/s (cache-resolved)"
    )


class Section(NamedTuple):
    """A section defined in this module.  Each subsystem section is a
    whole module with the same three names."""

    run_section: Callable[..., dict]
    render_section: Callable[[dict], str]
    #: the section's CI gate; ``None`` means ``--smoke`` rejects it
    check_section: Optional[Callable[[dict], None]] = None


#: every BENCH_engine.json section beyond the always-on ``micro`` block,
#: in report order.  Each entry runs with ``run_section(seeds=...,
#: parallel=..., use_cache=..., smoke=...)``, prints with
#: ``render_section`` and gates with ``check_section``.  ``federation``
#: runs last so its shared-pool snapshot reflects every fan-out the
#: earlier sections made.
SECTIONS = {
    "ramp": Section(_run_ramp, _render_ramp),
    "whatif": Section(
        lambda *, candidates, **_: run_whatif_bench(candidates), _render_whatif
    ),
    "sweep": Section(lambda **_: run_sweep_bench(), _render_sweep),
    "chaos": chaos_bench,
    "deploy": deploy_bench,
    "market": market_bench,
    "fluid": fluid_bench,
    "policy": policy_bench,
    "federation": federation_bench,
}


def run_bench(
    seeds: Sequence[int] = (1, 2, 3),
    scale: float = 0.15,
    rounds: int = 10,
    parallel: bool = True,
    use_cache: bool = True,
    skip: Sequence[str] = (),
    only: Sequence[str] = (),
    smoke: bool = False,
    whatif_candidates: int = 8,
    fluid: bool = False,
    fluid_threshold: int = 0,
) -> dict:
    """Run the engine benchmark; returns the report.

    By default the micro scenarios are timed, then every :data:`SECTIONS`
    entry not named in ``skip`` runs in registry order.  ``only`` runs
    just the named sections, in registry order, and leaves the micro
    scenarios out.  ``smoke`` runs each section at its CI size: seed 1, no
    cache.  ``fluid`` / ``fluid_threshold`` switch the ramp-replication
    arms onto the hybrid fluid workload engine (the dedicated ``fluid``
    section always benchmarks both modes)."""
    unknown = (set(skip) | set(only)) - set(SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown bench section(s) {sorted(unknown)}; "
            f"choose from {list(SECTIONS)}"
        )
    if smoke:
        seeds, use_cache = (1,), False
    common = {
        "seeds": tuple(seeds),
        "parallel": parallel,
        "use_cache": use_cache,
        "smoke": smoke,
    }
    extras = {
        "ramp": {"scale": scale, "fluid": fluid, "fluid_threshold": fluid_threshold},
        "whatif": {"candidates": whatif_candidates},
    }
    report: dict = {} if only else {"micro": run_micro(rounds)}
    for name in SECTIONS:
        if (name in only) if only else (name not in skip):
            report[name] = SECTIONS[name].run_section(
                **common, **extras.get(name, {})
            )
    return report


def merge_report(path: str, sections: dict) -> None:
    """Write ``sections`` into the JSON report at ``path``: an existing
    report keeps its other keys and their order; a missing one is created
    with just ``sections``."""
    target = Path(path)
    report = json.loads(target.read_text()) if target.exists() else {}
    report.update(sections)
    target.write_text(json.dumps(report, indent=2, default=float) + "\n")


def check_against(
    reference_path: str, tolerance: float = 0.25, rounds: int = 10
) -> tuple[bool, list[str]]:
    """Perf-smoke gate: re-time the micro scenarios and compare against a
    committed BENCH_engine.json.  A scenario fails if it is slower than
    ``(1 + tolerance) ×`` the committed timing (being *faster* never
    fails).  Returns (ok, report lines)."""
    reference = json.loads(Path(reference_path).read_text())
    fresh = run_micro(rounds)
    ok = True
    lines = []
    for name, block in fresh.items():
        committed = reference["micro"][name]["best_s"]
        measured = block["best_s"]
        limit = committed * (1.0 + tolerance)
        passed = measured <= limit
        ok = ok and passed
        lines.append(
            f"{name}: {measured * 1e3:.2f} ms vs committed "
            f"{committed * 1e3:.2f} ms (limit {limit * 1e3:.2f} ms) "
            f"{'ok' if passed else 'REGRESSION'}"
        )
    return ok, lines


def check_whatif(
    reference_path: str, min_speedup: float = 3.0
) -> tuple[bool, list[str]]:
    """Perf-smoke gate over the what-if work (``make bench-whatif-check``).

    Validates the *committed* BENCH_engine.json whatif section (present,
    byte-identical, memoized speedup >= ``min_speedup``), then runs two
    live smokes sized for a CI runner: a 2-candidate parallel decision
    that must be byte-identical to serial with the same winner, and a
    2x2 sweep shard whose warm pass must resolve from the cache with
    identical rows.  Returns (ok, report lines).
    """
    reference = json.loads(Path(reference_path).read_text())
    ok = True
    lines = []

    committed = reference.get("whatif")
    if committed is None:
        return False, [f"{reference_path}: no 'whatif' section committed"]
    checks = [
        ("byte_identical", committed.get("byte_identical") is True),
        ("same_winner", committed.get("same_winner") is True),
        (
            f"speedup_memoized >= {min_speedup:g}",
            committed.get("speedup_memoized", 0.0) >= min_speedup,
        ),
    ]
    for name, passed in checks:
        ok = ok and passed
        lines.append(f"committed whatif.{name}: {'ok' if passed else 'FAIL'}")

    live = run_whatif_bench(candidates=2)
    for name in ("byte_identical", "same_winner"):
        passed = live[name] is True
        ok = ok and passed
        lines.append(
            f"live 2-candidate parallel decision {name}: "
            f"{'ok' if passed else 'FAIL'}"
        )
    lines.append(
        f"live decision: serial {live['serial_s']:.2f}s, memoized "
        f"{live['memoized_s']:.3f}s ({live['speedup_memoized']:.1f}x)"
    )

    sweep = run_sweep_bench()
    sweep_checks = [
        ("rows_identical", sweep["rows_identical"] is True),
        ("warm pass cache-resolved", sweep["warm"]["cache"]["misses"] == 0),
        ("warm pass hits > 0", sweep["warm"]["cache"]["hits"] > 0),
    ]
    for name, passed in sweep_checks:
        ok = ok and passed
        lines.append(f"live 2x2 sweep {name}: {'ok' if passed else 'FAIL'}")
    return ok, lines
