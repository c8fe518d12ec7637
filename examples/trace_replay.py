#!/usr/bin/env python
"""Workload trace capture and replay.

Captures the exact request stream of a closed-loop run, saves it as JSON
lines, and replays it open-loop against two configurations (1 vs 2 DB
replicas) — the controlled-comparison methodology enabled by the trace
tooling.

Run:  python examples/trace_replay.py
"""

import tempfile

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.metrics.collector import MetricsCollector
from repro.workload.profiles import ConstantProfile
from repro.workload.traces import TraceRecorder, TraceReplayer, WorkloadTrace


def capture() -> WorkloadTrace:
    """Record what 150 clients produce against a managed system."""
    system = ManagedSystem(
        ExperimentConfig(
            profile=ConstantProfile(150, 300.0), seed=31, managed=False,
            sample_nodes=False,
        )
    )
    recorder = TraceRecorder(system.kernel, system.entry)
    system.emulator.entry = recorder
    system.run()
    return recorder.trace


def replay(trace: WorkloadTrace, db_replicas: int) -> MetricsCollector:
    """Replay the trace open-loop against a fresh system."""
    system = ManagedSystem(
        ExperimentConfig(
            profile=ConstantProfile(1, trace.duration_s + 60.0),
            seed=31,
            managed=False,
            sample_nodes=False,
        )
    )
    system.emulator.stop()  # no live clients: the trace drives everything
    for _ in range(db_replicas - 1):
        system.db_tier.grow()
        system.kernel.run(until=system.kernel.now + 30.0)
    collector = MetricsCollector()
    TraceReplayer(system.kernel, trace, system.entry, collector).start()
    system.kernel.run(until=trace.duration_s + 120.0)
    return collector


def main() -> None:
    print("Capturing a 300 s / 150-client trace...")
    trace = capture()
    print(
        f"  {len(trace)} requests, write fraction "
        f"{trace.write_fraction():.1%}"
    )
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as fh:
        path = fh.name
    trace.save(path)
    trace = WorkloadTrace.load(path)
    print(f"  saved + reloaded from {path}")

    print("\nReplaying the identical stream against two configurations:")
    for replicas in (1, 2):
        collector = replay(trace, replicas)
        stats = collector.latency_summary()
        print(
            f"  {replicas} DB replica(s): mean "
            f"{stats['mean'] * 1e3:7.1f} ms   p95 {stats['p95'] * 1e3:7.1f} ms"
            f"   completed {collector.completed_requests}"
        )
    print(
        "\nSame arrivals, same demands — the latency difference is purely "
        "the configuration's."
    )


if __name__ == "__main__":
    main()
