"""Shared machinery for the benchmark harness.

The paper's Figures 5–9 come from two runs of the same 3000 s workload ramp
(80 → 500 → 80 clients, +21/min): one managed by Jade, one static.  Those
runs are expensive, so they are computed once per pytest session and shared
by every figure benchmark; Table 1 uses two cheaper constant-load runs.

Every benchmark prints the series/rows it reproduces and appends them to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be assembled from
the artifacts.
"""

from __future__ import annotations

import os
from pathlib import Path

from typing import Optional

from repro.jade.system import ExperimentConfig
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner
from repro.runner.results import CompletedRun
from repro.workload.profiles import ConstantProfile, RampProfile

RESULTS_DIR = Path(__file__).parent / "results"

#: paper reference points (used in the printed paper-vs-measured tables)
PAPER = {
    "table1": {
        "throughput_rps": (12.0, 12.0),       # (with Jade, without)
        "resp_time_ms": (89.0, 87.0),
        "cpu_pct": (12.74, 12.42),
        "mem_pct": (20.1, 17.5),
    },
    "fig5_db_growth_clients": (180, 320),
    "fig5_app_growth_clients": (420,),
    "fig8_static_latency_avg_s": 10.42,
    "fig9_managed_latency_avg_ms": 590.0,
}

_cache: dict[str, CompletedRun] = {}


def _runner() -> ExperimentRunner:
    """Experiment runner for the shared figure runs.

    Parallel by default (the managed/static ramp pair computes
    concurrently on first use).  The on-disk result cache is opt-in for
    benchmarks — set ``REPRO_BENCH_CACHE=1`` — because a cache hit would
    make pytest-benchmark time a pickle load instead of a simulation.
    """
    cache = ResultCache() if os.environ.get("REPRO_BENCH_CACHE") else None
    return ExperimentRunner(cache=cache)


def _seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "1"))


def _trace_sink(label: str):
    """Opt-in decision tracing for the figure runs: set REPRO_BENCH_TRACE
    to a directory and each shared run dumps `<dir>/<label>.jsonl`
    (render with `python -m repro trace <file>`)."""
    trace_dir = os.environ.get("REPRO_BENCH_TRACE")
    if not trace_dir:
        return None
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    return str(path / f"{label}.jsonl")


def ramp_profile() -> RampProfile:
    """The paper's §5.2 ramp (optionally compressed via REPRO_BENCH_SCALE,
    e.g. 0.5 halves every duration while keeping the same client counts)."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return RampProfile(
        warmup_s=300.0 * scale,
        step_period_s=60.0 * scale,
        cooldown_s=300.0 * scale,
    )


def _ramp_config(managed: bool, seed: int) -> ExperimentConfig:
    label = "ramp_managed" if managed else "ramp_static"
    return ExperimentConfig(
        profile=ramp_profile(),
        seed=seed,
        managed=managed,
        trace_jsonl=_trace_sink(label),
    )


def _ramp_pair(seed: int) -> None:
    """Compute the managed and static ramp runs for ``seed`` as one batch
    (they are independent, so the runner executes them concurrently)."""
    batch = {}
    for managed in (True, False):
        key = f"{'managed' if managed else 'static'}-{seed}"
        if key not in _cache:
            batch[key] = _ramp_config(managed, seed)
    if batch:
        _cache.update(_runner().run_many(batch))


def managed_ramp(seed: Optional[int] = None) -> CompletedRun:
    """The Jade-managed ramp run (Figures 5, 6, 7, 9)."""
    seed = _seed() if seed is None else seed
    key = f"managed-{seed}"
    if key not in _cache:
        _ramp_pair(seed)
    return _cache[key]


def static_ramp(seed: Optional[int] = None) -> CompletedRun:
    """The unmanaged ramp run (Figures 6, 7, 8 baselines)."""
    seed = _seed() if seed is None else seed
    key = f"static-{seed}"
    if key not in _cache:
        _ramp_pair(seed)
    return _cache[key]


def proactive_ramp(seed: Optional[int] = None) -> CompletedRun:
    """The ramp with the forecast-driven capacity manager alongside the
    reactive loops (the ``bench_ext_proactive`` treatment arm).

    Tuned for the extension benchmark: a 0.25 s SLO in the cost model (the
    ramp's reactive-growth transients sit in the 0.2–0.35 s band) and a
    lower grow margin so the planner arms one inhibition window ahead."""
    from repro.capacity.cost import CostModel
    from repro.capacity.proactive import ProactiveConfig

    seed = _seed() if seed is None else seed
    key = f"proactive-{seed}"
    if key not in _cache:
        config = ExperimentConfig(
            profile=ramp_profile(),
            seed=seed,
            managed=True,
            proactive=True,
            proactive_config=ProactiveConfig(
                min_eval_interval_s=90.0,
                grow_margin=0.85,
                cost_model=CostModel(
                    slo_latency_s=0.25, slo_violation_cost_per_s=0.2
                ),
            ),
            trace_jsonl=_trace_sink("ramp_proactive"),
        )
        _cache[key] = _runner().run(config)
    return _cache[key]


def constant80(managed: bool, seed: Optional[int] = None) -> CompletedRun:
    """300 s at 80 clients (Table 1's medium workload); the managed and
    unmanaged arms compute as one concurrent batch."""
    seed = _seed() if seed is None else seed
    key = f"const80-{managed}-{seed}"
    if key not in _cache:
        batch = {
            f"const80-{m}-{seed}": ExperimentConfig(
                profile=ConstantProfile(80, 300.0), seed=seed, managed=m
            )
            for m in (True, False)
            if f"const80-{m}-{seed}" not in _cache
        }
        _cache.update(_runner().run_many(batch))
    return _cache[key]


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def format_series(pairs, header: str, fmt: str = "{:10.1f}  {:10.3f}") -> str:
    lines = [header]
    lines += [fmt.format(t, v) for t, v in pairs]
    return "\n".join(lines)
