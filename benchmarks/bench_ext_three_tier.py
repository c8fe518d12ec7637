"""Extension — managing the full Figure 2 architecture (3 tiers).

§7: "apply our self-optimization techniques on other use cases to show the
genericity of our approach."  Here the *web* tier (L4 switch + Apache
replicas, a tier the paper only managed qualitatively) gets its own control
loop, using the unchanged generic TierManager/CpuProbe/PolicyReactor —
the only difference is the ADL the preset deploys, from which
ManagedSystem reads the wiring (balancer = the L4 switch, replica factory =
the Apache wrapper, bindings template = the two Tomcats' AJP interfaces).
"""

from repro.jade.system import ManagedSystem
from repro.jade.three_tier import three_tier_config
from repro.workload.profiles import RampProfile

from benchmarks._shared import emit


def run_three_tier() -> ManagedSystem:
    profile = RampProfile(warmup_s=150.0, step_period_s=30.0, cooldown_s=150.0)
    system = ManagedSystem(three_tier_config(profile=profile, seed=2))
    system.run()
    return system


def bench_ext_three_tier_ramp(benchmark):
    system = benchmark.pedantic(run_three_tier, rounds=1, iterations=1)
    col = system.collector
    lines = [
        "Extension: three-tier management (L4 + Apache[web loop] + Tomcat x2"
        " + C-JDBC + MySQL[db loop])",
        "workload: 40 % static documents, ramp 80->500->80 (compressed)",
        "",
        f"{'tier':<10}{'change':<8}{'t (s)':>8}{'clients':>9}",
    ]
    for tier in ("web", "database"):
        changes = col.replica_changes(tier)
        for (t0, v0), (t1, v1) in zip(changes, changes[1:]):
            lines.append(
                f"{tier:<10}{f'{int(v0)}->{int(v1)}':<8}{t1:>8.0f}"
                f"{int(col.workload.value_at(t1)):>9}"
            )
    stats = col.latency_summary()
    lines.append("")
    lines.append(
        f"latency: mean {stats['mean'] * 1e3:.1f} ms, p95 {stats['p95'] * 1e3:.1f} ms; "
        f"failed requests: {col.failed_requests}"
    )
    emit("ext_three_tier", "\n".join(lines))

    # Genericity demonstrated: both loops fired, both tiers shrank back.
    assert system.app_tier.grows_completed >= 1
    assert system.db_tier.grows_completed >= 1
    assert system.app_tier.shrinks_completed >= 1
    assert col.failed_requests == 0
    assert stats["mean"] < 0.5
