#!/usr/bin/env python
"""Managing the full Figure 2 architecture (extension, §7 genericity).

An L4 switch fronts a replicated Apache web tier, cross-bound through
mod_jk to two Tomcats, over C-JDBC and replicated MySQL.  Two control
loops run: one resizes the *web* tier (a tier the paper never resized) and
one the database tier — using the very same generic sensor / reactor /
actuator components, just wired differently.  The architecture is an
``ExperimentConfig`` preset; the ordinary ``ManagedSystem`` deploys it.

Run:  python examples/three_tier.py
"""

from repro.fractal.introspection import architecture_report
from repro.jade.system import ManagedSystem
from repro.jade.three_tier import three_tier_config
from repro.workload.profiles import RampProfile


def main() -> None:
    profile = RampProfile(warmup_s=150, step_period_s=30, cooldown_s=150)
    system = ManagedSystem(three_tier_config(profile=profile, seed=2))

    print("Initial architecture:\n")
    print(architecture_report(system.app.root))

    print(f"\nRunning the ramp (80 -> 500 -> 80 clients, {profile.duration_s:.0f} s,"
          " 40 % static documents)...")
    collector = system.run()

    print("\nReconfiguration timeline:")
    for t, desc in collector.reconfigurations:
        clients = int(collector.workload.value_at(t))
        print(f"  t={t:7.1f}s  clients={clients:4d}  {desc}")

    stats = collector.latency_summary()
    print(
        f"\nLatency: mean {stats['mean'] * 1e3:.1f} ms, "
        f"p95 {stats['p95'] * 1e3:.1f} ms; failures: "
        f"{collector.failed_requests}"
    )
    print(
        f"Peak provisioning: web x{int(collector.tier_replicas['web'].max())}, "
        f"db x{int(collector.tier_replicas['database'].max())}"
    )
    print(
        "\nBoth tiers were resized by the SAME generic TierManager/probe/"
        "reactor code —\nonly the wiring (balancer component, replica "
        "factory, binding template) differs."
    )


if __name__ == "__main__":
    main()
