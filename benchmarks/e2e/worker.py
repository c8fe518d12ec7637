"""One measured run in a fresh interpreter.

Usage (internal; the harness spawns it)::

    python -m benchmarks.e2e.worker WORKLOAD SEED MODE SCALE

``MODE`` is ``run`` (untraced, under the :class:`SpeedProbe`),
``trace`` (under cProfile; federations run serially so every region is
in this process) or ``setup`` (stop just before the run call).  Prints
one JSON record as its last line: ``time.monotonic()`` stamps the
harness turns into set-up times, the run's wall time raw and rescaled,
its output digest and public counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from benchmarks.e2e.workloads import WORKLOADS


class SpeedProbe:
    """Samples the CPU's speed in this process while a run executes.

    On a shared host the speed one core gives a Python process switches
    between levels up to 1.7x apart, each lasting seconds, so two runs
    of identical work differ by 20 % in wall time.  Every ``PERIOD_S`` a
    SIGALRM handler times a fixed pure-Python loop.  :meth:`rescale`
    turns the run's wall time, minus the probe's own, into seconds at
    the reference speed at which the loop takes ``REFERENCE_S``: each
    interval counts ``REFERENCE_S / loop time`` of its length.  Forked
    children inherit no interval timer, so only this process is probed.
    """

    PERIOD_S = 0.02
    LOOP = 1500
    #: the loop's fastest time on the 2-core x86 box the bounds were set on
    REFERENCE_S = 100e-6

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(self.LOOP):
            x += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def rescale(self, wall_s: float) -> float:
        if not self.samples:
            raise RuntimeError("run too short for a speed sample")
        net = wall_s - sum(self.samples)
        return net * statistics.fmean(self.REFERENCE_S / p for p in self.samples)


def collector_digest(col) -> str:
    """sha256 over the simulated outputs: latency times and values,
    failure times, per-tier replica changes, the reconfiguration log and
    node-CPU samples.  Never events or wall time."""
    h = hashlib.sha256()
    for series in (col.latencies, col.node_cpu):
        h.update(series.times.astype("<f8").tobytes())
        h.update(series.values.astype("<f8").tobytes())
    h.update(col.failures.times.astype("<f8").tobytes())
    h.update(repr({t: col.replica_changes(t) for t in sorted(col.tier_replicas)}).encode())
    h.update(repr(col.reconfigurations).encode())
    return h.hexdigest()


def federation_digest(result) -> str:
    """sha256 over every region's scorecard (minus its event count) and
    collector digest."""
    h = hashlib.sha256()
    for name, card in result.scorecards_json().items():
        card = json.loads(card)
        card.pop("events_processed")
        h.update(json.dumps(card, sort_keys=True, separators=(",", ":")).encode())
        h.update(collector_digest(result.regions[name].run.collector).encode())
    return h.hexdigest()


def _outputs(collectors) -> dict:
    import numpy as np

    latencies = np.concatenate([c.latencies.values for c in collectors])
    p50, p99 = np.percentile(latencies, [50.0, 99.0]) * 1e3
    return {
        "completed": sum(c.completed_requests for c in collectors),
        "failed": sum(c.failed_requests for c in collectors),
        "latency_samples": int(latencies.size),
        "sim_latency_p50_ms": float(p50),
        "sim_latency_p99_ms": float(p99),
        "reconfigurations": sum(len(c.reconfigurations) for c in collectors),
    }


def main(argv: list[str]) -> dict:
    name, seed, mode, scale = argv[0], int(argv[1]), argv[2], float(argv[3])
    workload = WORKLOADS[name]
    traced = mode == "trace"

    if workload.federated:
        from repro.federation.coordinator import run_federation
    else:
        from repro.jade.system import ManagedSystem
    t_imported = time.monotonic()

    target = workload.build(seed, scale)
    if workload.federated:
        def call():
            return run_federation(target, parallel=not traced)
    else:
        system = ManagedSystem(target)
        call = system.run
    record = {"t_imported": t_imported, "t_run": time.monotonic()}
    if mode == "setup":
        return record

    if traced:
        import cProfile

        profiler = cProfile.Profile()
        t0 = time.perf_counter()
        profiler.enable()
        result = call()
        profiler.disable()
        record["wall_s"] = time.perf_counter() - t0
    else:
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            result = call()
            record["wall_s"] = time.perf_counter() - t0
        record["ref_wall_s"] = probe.rescale(record["wall_s"])
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    record["peak_rss_mb"] = kb / 1024.0

    if workload.federated:
        regions = [result.regions[n] for n in sorted(result.regions)]
        record.update(_outputs([r.run.collector for r in regions]))
        record["digest"] = federation_digest(result)
        record["events"] = result.events_processed
        record["tombstones"] = None  # not in the distilled region results
        record["critical_path_s"] = result.critical_path_s()
        record["coordinator_busy_s"] = result.coordinator_busy_s
    else:
        record.update(_outputs([result]))
        record["digest"] = collector_digest(result)
        record["events"] = system.kernel.events_processed
        record["tombstones"] = system.kernel.tombstones_skipped

    if traced:
        import pstats

        from benchmarks.e2e.trace import profile_layers

        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
        record["profile"] = profile_layers(pstats.Stats(profiler), src)
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
