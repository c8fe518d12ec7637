#!/usr/bin/env python
"""Self-optimization under the paper's workload ramp (§5.2, Figures 5/6/9).

Drives the managed J2EE cluster through 80 → 500 → 80 emulated clients
(+21/min) and prints the reconfiguration timeline, a compact ASCII plot of
the DB-tier CPU against its thresholds, and the latency comparison against
a static run.

Run:  python examples/self_sizing.py            (full 3000 s ramp, ~1 min)
      python examples/self_sizing.py --quick    (compressed ramp)
"""

import sys

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import RampProfile


def ascii_plot(series, thresholds, width=72, height=12, t_end=3000.0):
    """Tiny ASCII rendering of a 0..1 time series with threshold lines."""
    buckets = series.bucket_mean(t_end / width, t_end)
    grid = [[" "] * width for _ in range(height)]
    lo, hi = thresholds
    for row_value, mark in ((hi, "-"), (lo, "-")):
        row = height - 1 - int(row_value * (height - 1))
        grid[row] = [mark] * width
    for t, v in zip(buckets.times, buckets.values):
        col = min(width - 1, int(t / t_end * width))
        row = height - 1 - int(min(1.0, v) * (height - 1))
        grid[row][col] = "*"
    lines = ["1.0 |" + "".join(grid[0])]
    lines += ["    |" + "".join(row) for row in grid[1:-1]]
    lines += ["0.0 +" + "".join(grid[-1])]
    return "\n".join(lines)


def main() -> None:
    quick = "--quick" in sys.argv
    scale = 0.35 if quick else 1.0
    profile = RampProfile(
        warmup_s=300 * scale, step_period_s=60 * scale, cooldown_s=300 * scale
    )
    print(
        f"Workload: 80 -> 500 -> 80 clients over {profile.duration_s:.0f} s "
        f"({'compressed' if quick else 'paper-scale'})"
    )

    print("\n[1/2] Managed run (Jade self-optimization active)...")
    managed = ManagedSystem(ExperimentConfig(profile=profile, seed=1))
    managed.run()
    col = managed.collector

    print("\nReconfiguration timeline:")
    for t, desc in col.reconfigurations:
        clients = int(col.workload.value_at(t))
        print(f"  t={t:7.1f}s  clients={clients:4d}  {desc}")

    print("\nDatabase tier CPU (90 s moving average) vs thresholds:")
    print(
        ascii_plot(
            col.tier_cpu["database"],
            (managed.config.db_loop.min_threshold, managed.config.db_loop.max_threshold),
            t_end=profile.duration_s,
        )
    )

    print("\n[2/2] Static run (no Jade, 1 Tomcat + 1 MySQL)...")
    static = ManagedSystem(
        ExperimentConfig(profile=profile, seed=1, managed=False)
    )
    static.run()

    m = managed.collector.latency_summary()
    s = static.collector.latency_summary()
    print("\nResponse time (Figures 8 & 9):")
    print(f"  with Jade    : mean {m['mean'] * 1e3:8.0f} ms   p95 {m['p95'] * 1e3:8.0f} ms")
    print(f"  without Jade : mean {s['mean'] * 1e3:8.0f} ms   p95 {s['p95'] * 1e3:8.0f} ms")
    print(f"  -> Jade keeps latency {s['mean'] / m['mean']:.0f}x lower on average")
    print(
        f"\nPeak provisioning: app x"
        f"{int(col.tier_replicas['application'].max())}, db x"
        f"{int(col.tier_replicas['database'].max())} (paper: x2 and x3)"
    )


if __name__ == "__main__":
    main()
