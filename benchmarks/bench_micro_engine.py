"""Micro-benchmarks of the simulation substrate.

Not a paper figure: these keep the reproduction honest about its own cost
(the guides' rule — no optimization without measurement) and catch
performance regressions in the hot paths: the event kernel, the
processor-sharing resource, and recovery-log replay.
"""

from repro.legacy.recovery_log import RecoveryLog
from repro.runner.bench import ps_workload, scenario_kernel, scenario_ps


def bench_kernel_schedule_run(benchmark):
    """Schedule + dispatch 10k events (``repro bench``'s micro scenario)."""
    assert benchmark(scenario_kernel) == 10_000


def bench_ps_cpu_churn(benchmark):
    """5k staggered jobs through one processor-sharing CPU (``repro
    bench``'s micro scenario)."""
    assert benchmark(scenario_ps, *ps_workload()) == 5000


def bench_recovery_log_append_replay(benchmark):
    """Append 20k writes and walk a 10k-entry replay suffix."""

    def scenario():
        log = RecoveryLog()
        for i in range(20_000):
            log.append(f"UPDATE items SET bid={i}", 0.001)
        total = sum(1 for _ in log.entries_from(10_000))
        return total

    assert benchmark(scenario) == 10_000
