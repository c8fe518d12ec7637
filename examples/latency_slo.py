#!/usr/bin/env python
"""Latency-SLO self-optimization (extension of §4.2's response-time sensor).

Instead of CPU thresholds, the manager watches the smoothed end-to-end
client latency against an SLO band and — because latency is not
attributable to one tier — localizes the bottleneck (highest-CPU tier) when
it must grow, and picks the idlest over-provisioned tier when it may
shrink.

Run:  python examples/latency_slo.py
"""

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import PiecewiseProfile


def main() -> None:
    profile = PiecewiseProfile(
        [(0.0, 80), (120.0, 350), (900.0, 80)], duration_s=1400.0
    )
    config = ExperimentConfig(
        profile=profile,
        seed=11,
        use_slo_manager=True,
        slo_max_latency_s=0.5,
        slo_min_latency_s=0.06,
    )
    system = ManagedSystem(config)
    print(
        f"SLO: keep the 60 s moving average of client latency under "
        f"{config.slo_max_latency_s * 1e3:.0f} ms"
    )
    print("Workload: 80 -> 350 -> 80 clients (step changes)\n")
    collector = system.run()

    print("Decisions (note the bottleneck localization):")
    for t, desc in collector.reconfigurations:
        print(f"  t={t:7.1f}s  {desc}")

    for window, label in (((300.0, 800.0), "under 350 clients"),
                          ((1100.0, 1400.0), "back at 80 clients")):
        lat = collector.latencies.window(*window)
        print(
            f"\nLatency {label}: mean {lat.mean() * 1e3:.0f} ms "
            f"(SLO {config.slo_max_latency_s * 1e3:.0f} ms)"
        )
    print(
        f"\nFinal provisioning: app x{system.app_tier.replica_count}, "
        f"db x{system.db_tier.replica_count} (scaled back down)"
    )


if __name__ == "__main__":
    main()
