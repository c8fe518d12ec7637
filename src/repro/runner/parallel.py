"""Process-parallel fan-out with cache short-circuiting.

Two layers live here:

* :func:`fanout_map` — a generic, order-preserving process-pool map used
  by everything in the repo that fans independent work out over cores:
  the experiment runner below, the what-if engine's candidate branches
  (:mod:`repro.capacity.whatif`), and the ``repro sweep`` grid.  It
  degrades to an in-process loop when parallelism cannot help (one item,
  one worker, ``REPRO_RUNNER_SERIAL=1``) or would deadlock (already
  inside a pool worker), so callers never special-case.
* :class:`ExperimentRunner` — batch execution of
  :class:`~repro.jade.system.ExperimentConfig` through the
  :class:`~repro.runner.cache.ResultCache`.

Experiments are embarrassingly parallel — each (config, seed) builds its
own kernel and RNG streams — so a batch fans out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Determinism is
preserved: a run's result depends only on its config, never on scheduling,
so parallel and serial execution produce identical
:class:`~repro.runner.results.CompletedRun` payloads (asserted by tests).

The runner consults the :class:`~repro.runner.cache.ResultCache` before
dispatching and stores every fresh result, so a repeated ``repro bench``
(or a re-run benchmark session) costs one cache load per experiment.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Mapping, Optional, Sequence, TypeVar

from repro.runner.cache import ResultCache
from repro.runner.results import CompletedRun

T = TypeVar("T")
R = TypeVar("R")

#: environment marker set in pool workers so nested fan-outs (e.g. a
#: proactive manager running inside a pooled experiment) stay in-process
#: instead of forking a pool-of-pools
_POOL_MARKER = "REPRO_POOL_WORKER"

#: lifetime counters for the shared pool, surfaced by the bench report:
#: ``created``/``spawn_s`` count executor constructions and their wall
#: cost, ``fanouts`` the parallel fan-outs served, ``reused`` how many of
#: those found a warm pool already standing (the spawn overhead saved).
POOL_STATS = {"created": 0, "spawn_s": 0.0, "fanouts": 0, "reused": 0}

_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_workers = 0


def default_workers() -> int:
    """Pool width when the caller does not choose: bounded by cores."""
    return min(8, os.cpu_count() or 1)


def in_pool_worker() -> bool:
    """True inside a :func:`fanout_map` worker process."""
    return bool(os.environ.get(_POOL_MARKER))


def _pool_initializer() -> None:
    """Runs once in every worker: mark it so nested fan-outs stay
    in-process (module-level so it pickles under spawn)."""
    os.environ[_POOL_MARKER] = "1"


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, (re)created only when more workers are needed.

    Worker processes are stateless between tasks (every task imports and
    builds its own kernel), so one pool safely serves every fan-out in
    the process — bench sections, sweep grids, federation epochs — and
    each reuse saves a full executor spawn.
    """
    global _shared_pool, _shared_pool_workers
    if _shared_pool is not None and _shared_pool_workers >= workers:
        POOL_STATS["reused"] += 1
        return _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=True)
    t0 = time.perf_counter()
    _shared_pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_initializer
    )
    _shared_pool_workers = workers
    POOL_STATS["created"] += 1
    POOL_STATS["spawn_s"] += time.perf_counter() - t0
    return _shared_pool


def shutdown_pool() -> None:
    """Tear down the shared executor (atexit, tests, broken-pool reset)."""
    global _shared_pool, _shared_pool_workers
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=True)
        _shared_pool = None
        _shared_pool_workers = 0


atexit.register(shutdown_pool)


def pool_stats() -> dict:
    """Snapshot of :data:`POOL_STATS` plus the estimated spawn seconds
    saved by reuse (reuses × mean observed spawn cost)."""
    stats = dict(POOL_STATS)
    mean_spawn = (
        POOL_STATS["spawn_s"] / POOL_STATS["created"]
        if POOL_STATS["created"]
        else 0.0
    )
    stats["est_spawn_saved_s"] = POOL_STATS["reused"] * mean_spawn
    return stats


def fanout_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    max_workers: Optional[int] = None,
    parallel: bool = True,
) -> list[R]:
    """Order-preserving map over the shared process pool.

    ``fn`` must be a module-level callable and ``items`` picklable.  The
    result list matches ``items`` order exactly, so a parallel fan-out is
    a drop-in replacement for ``[fn(it) for it in items]`` — callers rely
    on this for byte-identical parallel-vs-serial reports.

    Runs in-process (same results, no pool) when ``parallel`` is off,
    fewer than two items or workers are available, ``REPRO_RUNNER_SERIAL``
    is set, or the caller is itself a pool worker.  The executor persists
    across calls (see :func:`_get_pool`); a broken pool — a worker killed
    mid-task — is torn down and the fan-out retried once on a fresh one.
    """
    items = list(items)
    if max_workers is None:
        max_workers = default_workers()
    workers = min(max_workers, len(items))
    if (
        not parallel
        or workers < 2
        or os.environ.get("REPRO_RUNNER_SERIAL")
        or in_pool_worker()
    ):
        return [fn(item) for item in items]
    POOL_STATS["fanouts"] += 1
    try:
        return list(_get_pool(workers).map(fn, items))
    except BrokenProcessPool:
        shutdown_pool()
        return list(_get_pool(workers).map(fn, items))


def execute_config(config) -> CompletedRun:
    """Build, run, and distill one experiment (the worker entry point —
    must stay module-level so it is importable from a pool worker).

    A :class:`~repro.federation.spec.FederationSpec` payload routes
    through the epoch coordinator instead (regions run serially inside
    the cell — the sweep/bench already fans cells out at this level)."""
    from repro.federation.spec import FederationSpec
    from repro.jade.system import ManagedSystem

    if isinstance(config, FederationSpec):
        from repro.federation.coordinator import run_federation

        return run_federation(config, parallel=False)

    t0 = time.perf_counter()
    system = ManagedSystem(config)
    system.run()
    return CompletedRun.from_system(system, time.perf_counter() - t0)


class ExperimentRunner:
    """Run batches of :class:`ExperimentConfig`, in parallel, through the
    result cache.

    ``parallel=False`` (or ``REPRO_RUNNER_SERIAL=1``) degrades to in-process
    serial execution — same results, no pool; useful under debuggers and on
    single-core machines where worker start-up costs more than it saves.
    ``cache=None`` disables caching entirely (every run computes).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        parallel: bool = True,
    ) -> None:
        if os.environ.get("REPRO_RUNNER_SERIAL"):
            parallel = False
        self.max_workers = max_workers or default_workers()
        self.cache = cache
        self.parallel = parallel and self.max_workers > 1

    # ------------------------------------------------------------------
    def run(self, config) -> CompletedRun:
        """Run one experiment (cache-aware)."""
        return self.run_many({"run": config})["run"]

    def run_many(self, configs: Mapping[str, object]) -> dict[str, CompletedRun]:
        """Run a labelled batch; returns ``{label: CompletedRun}``.

        Cache hits resolve immediately; misses execute concurrently (or
        serially without a pool) and are stored on completion.
        """
        results: dict[str, CompletedRun] = {}
        pending: list[tuple[str, object, Optional[str]]] = []
        for label, config in configs.items():
            if self.cache is not None:
                key = self.cache.key_for(config)
                hit = self.cache.load(key)
                if hit is not None:
                    results[label] = hit
                    continue
                pending.append((label, config, key))
            else:
                pending.append((label, config, None))

        if not pending:
            return results

        fresh = fanout_map(
            execute_config,
            [config for _, config, _ in pending],
            max_workers=self.max_workers,
            parallel=self.parallel,
        )
        for (label, config, key), run in zip(pending, fresh):
            if self.cache is not None and key is not None:
                self.cache.store(key, run, config=config)
            results[label] = run
        return results

    def run_many_timed(
        self, configs: Mapping[str, object]
    ) -> tuple[dict[str, CompletedRun], dict]:
        """:meth:`run_many` plus what the batch cost: ``elapsed_s`` wall
        seconds and, with a cache, the batch's own ``hits``/``misses``."""
        cache = self.cache
        hits0, misses0 = (cache.hits, cache.misses) if cache is not None else (0, 0)
        t0 = time.perf_counter()
        results = self.run_many(configs)
        stats = {"elapsed_s": time.perf_counter() - t0}
        if cache is not None:
            stats["hits"] = cache.hits - hits0
            stats["misses"] = cache.misses - misses0
        return results, stats

    def run_seeds(
        self, make_config, seeds: Sequence[int], prefix: str = "seed"
    ) -> dict[int, CompletedRun]:
        """Replicate one experiment across seeds: ``make_config(seed)``
        builds each arm's config.  Returns ``{seed: CompletedRun}``."""
        labelled = {f"{prefix}-{s}": make_config(s) for s in seeds}
        results = self.run_many(labelled)
        return {s: results[f"{prefix}-{s}"] for s in seeds}
