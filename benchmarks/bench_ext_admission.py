"""Extension — overload handling: admission control vs dynamic provisioning.

The paper's related work contrasts Jade's approach with systems like
Cataclysm [23] that *shed* load under overload instead of acquiring
capacity.  This bench puts the static 1+1 deployment under the peak load
three ways:

* unbounded queueing (the paper's Figure 8 configuration);
* admission control (Tomcat maxThreads + MySQL max_connections enforced);
* Jade dynamic provisioning.

Shape: queueing preserves every request but latency is catastrophic;
admission control bounds latency for admitted requests but drops a large
fraction; provisioning delivers both (at the cost of extra nodes).
"""

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import PiecewiseProfile

from benchmarks._shared import emit

PROFILE = PiecewiseProfile([(0.0, 450)], duration_s=700.0)


def run_case(managed: bool, limits: bool) -> dict:
    cfg = ExperimentConfig(
        profile=PROFILE, seed=12, managed=managed, tail_s=30.0
    )
    system = ManagedSystem(cfg)
    if limits:
        for tier in (system.app_tier, system.db_tier):
            tier.replicas[0].component.set_attr("enforce_limits", True)
    col = system.run()
    tail = col.latencies.window(400.0, 700.0)
    total = col.completed_requests + col.failed_requests
    return {
        "completed": col.completed_requests,
        "error_rate": col.failed_requests / max(1, total),
        "tail_latency_s": tail.mean() if len(tail) else float("nan"),
        "nodes_peak": int(
            col.tier_replicas["database"].max()
            + col.tier_replicas["application"].max()
        ),
    }


def bench_ext_admission_vs_provisioning(benchmark):
    def sweep():
        return {
            "queueing (Fig. 8)": run_case(managed=False, limits=False),
            "admission control": run_case(managed=False, limits=True),
            "Jade provisioning": run_case(managed=True, limits=False),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Extension: overload at 450 clients on a 1+1 deployment",
        "",
        f"{'strategy':<20}{'completed':>10}{'error rate':>11}"
        f"{'late-window lat (s)':>20}{'peak nodes':>11}",
    ]
    for label, r in results.items():
        lines.append(
            f"{label:<20}{r['completed']:>10}{r['error_rate']:>11.2%}"
            f"{r['tail_latency_s']:>20.2f}{r['nodes_peak']:>11}"
        )
    emit("ext_admission", "\n".join(lines))

    queueing = results["queueing (Fig. 8)"]
    shedding = results["admission control"]
    jade = results["Jade provisioning"]
    # Queueing: no errors, catastrophic latency.
    assert queueing["error_rate"] == 0.0
    assert queueing["tail_latency_s"] > 5.0
    # Shedding: bounded latency for admitted requests, substantial errors.
    assert shedding["tail_latency_s"] < queueing["tail_latency_s"]
    assert shedding["error_rate"] > 0.05
    # Provisioning: no errors AND low latency (more nodes).
    assert jade["error_rate"] == 0.0
    assert jade["tail_latency_s"] < 1.0
    assert jade["nodes_peak"] > queueing["nodes_peak"]
