"""The federation coordinator: lockstep epochs, serial or one process
per region.

Both execution modes run the *same* protocol::

    start every region
    for each epoch k:
        deliver epoch-k weight updates (sorted, deterministic order)
        every region advances one epoch, flushes a RegionReport
        the GlobalLoadBalancer routes the sorted reports -> k+1 updates
    every region drains its tail and distills a RegionResult

A region's trajectory therefore depends only on (its config, the
inbound updates per epoch), and the updates are a pure function of the
sorted reports — so the serial loop and the process-parallel loop are
byte-identical per region (``RegionResult.scorecard_json``,
test-enforced).  Parallelism changes only who calls ``run_epoch``: in
parallel mode each region owns a **persistent worker process** for the
whole run (state lives worker-side; only frozen messages cross the
pipe), so N balanced regions approach ``1/N`` of the serial wall-clock
on N cores.

Because the sandbox the committed benchmark runs on may have fewer
cores than regions, :meth:`FederationResult.critical_path_s` also
computes the schedule-independent parallel cost from per-epoch CPU busy
time measured inside ``run_epoch``: ``max(region build) + Σ_k
max_region(busy_k) + max(region finish) + coordinator routing``.  The
bench records the measured wall-clock of both modes *and* this critical
path, which is what a ≥N-core machine achieves.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.federation.messages import WeightUpdate, ordered
from repro.federation.region import RegionResult, RegionRuntime
from repro.federation.routing import GlobalLoadBalancer
from repro.federation.spec import FederationSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.cache import ResultCache


class FederationResult:
    """Picklable outcome of one federated run (all regions + routing)."""

    __slots__ = (
        "config",
        "mode",
        "regions",
        "updates_routed",
        "elapsed_s",
        "coordinator_busy_s",
        "events_processed",
        "wall_time_s",
    )

    def __init__(
        self,
        config: FederationSpec,
        mode: str,
        regions: dict[str, RegionResult],
        updates_routed: int,
        elapsed_s: float,
        coordinator_busy_s: float,
    ) -> None:
        self.config = config
        self.mode = mode
        self.regions = regions
        self.updates_routed = updates_routed
        self.elapsed_s = elapsed_s
        self.coordinator_busy_s = coordinator_busy_s
        self.events_processed = sum(
            r.run.events_processed for r in regions.values()
        )
        self.wall_time_s = elapsed_s

    # ------------------------------------------------------------------
    def scorecards_json(self) -> dict[str, str]:
        """Per-region canonical scorecards (the byte-identity surface)."""
        return {
            name: result.scorecard_json()
            for name, result in sorted(self.regions.items())
        }

    def critical_path_s(self) -> float:
        """Schedule-independent parallel cost: the busiest region per
        epoch, plus the widest build/finish, plus routing."""
        results = list(self.regions.values())
        path = max(r.build_s for r in results)
        epochs = max(len(r.epoch_busy_s) for r in results)
        for k in range(epochs):
            path += max(
                r.epoch_busy_s[k] if k < len(r.epoch_busy_s) else 0.0
                for r in results
            )
        path += max(r.finish_s for r in results)
        return path + self.coordinator_busy_s

    def summary(self) -> dict[str, float]:
        """Global rollup in the standard run-summary schema (sums for
        counters, completion-weighted means for latency, max replicas)."""
        summaries = [r.run.summary() for r in self.regions.values()]
        completed = sum(s["completed"] for s in summaries)
        failed = sum(s["failed"] for s in summaries)

        def weighted(field: str) -> float:
            if completed <= 0:
                return 0.0
            return (
                sum(s[field] * s["completed"] for s in summaries) / completed
            )

        n = len(summaries)
        return {
            "completed": completed,
            "failed": failed,
            "throughput_rps": sum(s["throughput_rps"] for s in summaries),
            "latency_mean_ms": weighted("latency_mean_ms"),
            "latency_p95_ms": weighted("latency_p95_ms"),
            "app_replicas_max": max(s["app_replicas_max"] for s in summaries),
            "db_replicas_max": max(s["db_replicas_max"] for s in summaries),
            "node_cpu_mean": sum(s["node_cpu_mean"] for s in summaries) / n,
            "node_mem_mean": sum(s["node_mem_mean"] for s in summaries) / n,
        }

    @property
    def fleet_cost(self) -> float:
        """Uniform-pool cost summed over the regional pools."""
        from repro.market.costs import uniform_fleet_cost

        return sum(
            uniform_fleet_cost(r.run.config) for r in self.regions.values()
        )


# ----------------------------------------------------------------------
# The epoch protocol, shared by both modes
# ----------------------------------------------------------------------
def _make_balancer(spec: FederationSpec) -> GlobalLoadBalancer:
    return GlobalLoadBalancer(
        regions=[r.name for r in spec.regions],
        adaptive=spec.adaptive_routing,
        min_weight=spec.min_weight,
        max_weight=spec.max_weight,
        gain=spec.routing_gain,
        latency_floor_s=spec.latency_floor_s,
        evacuate_at_s={
            r.name: r.evacuate_at_s
            for r in spec.regions
            if r.evacuate_at_s is not None
        },
    )


def _trace_path(trace_dir: Optional[str], name: str) -> Optional[str]:
    if trace_dir is None:
        return None
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    return str(path / f"{name}.jsonl")


def _run_serial(
    spec: FederationSpec, trace_dir: Optional[str]
) -> FederationResult:
    t_wall = time.perf_counter()
    runtimes = [
        RegionRuntime(spec, region, _trace_path(trace_dir, region.name))
        for region in spec.regions
    ]
    for runtime in runtimes:
        runtime.start()
    balancer = _make_balancer(spec)
    base_profiles = {r.name: r.profile for r in spec.regions}
    pending: list[WeightUpdate] = []
    coordinator_busy = 0.0
    for epoch in range(spec.epochs):
        reports = {}
        for runtime in runtimes:
            runtime.apply(pending)
            report, _busy = runtime.run_epoch(epoch)
            reports[runtime.name] = report
        if epoch + 1 < spec.epochs:
            t0 = time.process_time()
            mid = min((epoch + 1.5) * spec.epoch_s, spec.horizon_s)
            pending = ordered(
                balancer.route(epoch, reports, base_profiles, mid)
            )
            coordinator_busy += time.process_time() - t0
    results = {rt.name: rt.finish_result() for rt in runtimes}
    return FederationResult(
        config=spec,
        mode="serial",
        regions=results,
        updates_routed=balancer.updates_issued,
        elapsed_s=time.perf_counter() - t_wall,
        coordinator_busy_s=coordinator_busy,
    )


# ----------------------------------------------------------------------
# Parallel mode: one persistent worker process per region
# ----------------------------------------------------------------------
def _region_worker(conn, spec, region, trace_jsonl) -> None:
    """Worker entry point (module-level: picklable under spawn).  Owns
    the region for the whole run; only frozen messages cross the pipe."""
    os.environ["REPRO_POOL_WORKER"] = "1"  # nested fan-outs stay in-process
    try:
        runtime = RegionRuntime(spec, region, trace_jsonl)
        runtime.start()
        conn.send(("ready", runtime.build_s))
        while True:
            msg = conn.recv()
            if msg[0] == "epoch":
                _, epoch, updates = msg
                runtime.apply(updates)
                report, busy = runtime.run_epoch(epoch)
                conn.send(("report", report, busy))
            elif msg[0] == "finish":
                conn.send(("result", runtime.finish_result()))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
    except BaseException as exc:  # surface the crash to the coordinator
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise
    finally:
        conn.close()


def _recv(conn, name: str):
    msg = conn.recv()
    if msg[0] == "error":
        raise RuntimeError(f"region {name} worker failed: {msg[1]}")
    return msg


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _run_parallel(
    spec: FederationSpec, trace_dir: Optional[str]
) -> FederationResult:
    ctx = _mp_context()
    t_wall = time.perf_counter()
    workers = []
    for region in spec.regions:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_region_worker,
            args=(
                child_conn,
                spec,
                region,
                _trace_path(trace_dir, region.name),
            ),
            daemon=True,
            name=f"region-{region.name}",
        )
        proc.start()
        child_conn.close()
        workers.append((region.name, proc, parent_conn))
    try:
        for name, _proc, conn in workers:
            _recv(conn, name)  # ("ready", build_s)
        balancer = _make_balancer(spec)
        base_profiles = {r.name: r.profile for r in spec.regions}
        pending: list[WeightUpdate] = []
        coordinator_busy = 0.0
        for epoch in range(spec.epochs):
            for _name, _proc, conn in workers:
                conn.send(("epoch", epoch, pending))
            reports = {}
            for name, _proc, conn in workers:  # regions compute in parallel
                _tag, report, _busy = _recv(conn, name)
                reports[name] = report
            if epoch + 1 < spec.epochs:
                t0 = time.process_time()
                mid = min((epoch + 1.5) * spec.epoch_s, spec.horizon_s)
                pending = ordered(
                    balancer.route(epoch, reports, base_profiles, mid)
                )
                coordinator_busy += time.process_time() - t0
        results = {}
        for _name, _proc, conn in workers:
            conn.send(("finish",))
        for name, _proc, conn in workers:
            _tag, result = _recv(conn, name)
            results[name] = result
        for _name, proc, conn in workers:
            conn.close()
            proc.join(timeout=30.0)
    except BaseException:
        for _name, proc, _conn in workers:
            if proc.is_alive():
                proc.terminate()
        raise
    return FederationResult(
        config=spec,
        mode="parallel",
        regions=results,
        updates_routed=balancer.updates_issued,
        elapsed_s=time.perf_counter() - t_wall,
        coordinator_busy_s=coordinator_busy,
    )


# ----------------------------------------------------------------------
def run_federation(
    spec: FederationSpec,
    parallel: bool = True,
    cache: Optional[ResultCache] = None,
    trace_dir: Optional[str] = None,
) -> FederationResult:
    """Run a federation (cache-aware entry point).

    ``parallel`` picks the persistent-worker mode; results are
    byte-identical either way, so the cache is keyed on the spec alone
    (plus its :meth:`~FederationSpec.topology`, via the cache's key
    derivation).  Tracing bypasses the cache — trace sinks are a side
    effect a cache hit would skip.
    """
    key = None
    if cache is not None and trace_dir is None:
        key = cache.key_for(spec)
        hit = cache.load(key)
        if hit is not None:
            return hit
    if parallel and len(spec.regions) >= 2 and not os.environ.get(
        "REPRO_RUNNER_SERIAL"
    ):
        result = _run_parallel(spec, trace_dir)
    else:
        result = _run_serial(spec, trace_dir)
    if key is not None and cache is not None:
        cache.store(key, result, config=spec)
    return result
