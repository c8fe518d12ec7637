"""Self-recovery benchmark (Fig. 3's second manager).

Injects a database-replica crash under load and measures the repair
pipeline: detection latency, node re-allocation + reinstall, recovery-log
replay, and total MTTR.  Also verifies the repaired replica is
byte-identical (digest) to the survivors — the recovery log's purpose.
"""

from repro.jade.self_recovery import recovery_metrics
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile

from benchmarks._shared import emit


def run_crash_scenario() -> dict:
    cfg = ExperimentConfig(
        profile=ConstantProfile(120, 900.0),
        seed=7,
        managed=False,
        recovery=True,
    )
    system = ManagedSystem(cfg)
    kernel = system.kernel
    system.db_tier.grow()  # 2 replicas so the service survives the crash
    kernel.run(until=60.0)
    crash_t = 300.0
    victim = system.db_tier.replicas[-1]
    kernel.schedule_at(crash_t, victim.node.crash)
    col = system.run()
    metrics = recovery_metrics(col, crash_t)
    controller = system.cjdbc.content.controller
    backends = controller.enabled_backends()
    digests = {b.server.state_digest for b in backends}
    replayed = sum(b.server.replays_applied for b in backends)
    return {
        "crash_t": crash_t,
        "detect_latency_s": metrics["detect_latency_s"],
        "mttr_s": metrics["mttr_s"],
        "replicas_after": len(backends),
        "digests_consistent": len(digests) == 1,
        "entries_replayed": replayed,
        "failed_requests": col.failed_requests,
        "completed_requests": col.completed_requests,
    }


def bench_recovery_mttr(benchmark):
    r = benchmark.pedantic(run_crash_scenario, rounds=1, iterations=1)
    lines = [
        "Self-recovery: DB replica crash under 120-client load",
        "",
        f"detection latency:   {r['detect_latency_s']:.1f} s",
        f"MTTR (crash -> replica active): {r['mttr_s']:.1f} s",
        f"replicas after repair: {r['replicas_after']}",
        f"recovery-log entries replayed: {r['entries_replayed']}",
        f"state digests consistent: {r['digests_consistent']}",
        f"requests: {r['completed_requests']} ok, {r['failed_requests']} failed",
    ]
    emit("recovery", "\n".join(lines))

    assert r["replicas_after"] == 2
    assert r["digests_consistent"]
    assert r["detect_latency_s"] <= 2.0          # 1 s heartbeat
    assert r["mttr_s"] < 120.0                   # install + start + sync
    # The service never went down: one replica kept serving.
    assert r["completed_requests"] > 0
