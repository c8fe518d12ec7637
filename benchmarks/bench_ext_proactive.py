"""Extension — proactive capacity planning vs the reactive loops alone.

The paper's threshold reactor (§5.2) waits for a *measured* crossing and
then pays one inhibition window per replica, so every Fig. 9 ramp carries
latency transients in the minute before each grow.  The proactive manager
(:mod:`repro.capacity`) forecasts the load, forks the simulation through
the what-if engine, and grows ahead of the predicted crossing — the same
staircase, shifted roughly one inhibition window earlier.

Measured on the Fig. 9 ramp: SLO-violation seconds (0.25 s SLO — the
reactive transients sit in the 0.2–0.35 s band), node-hours consumed
(tiers + the two balancer nodes), and the reconfiguration count.  The
claim under test: proactive strictly reduces SLO-violation time at a
bounded (<15 %) node-hour overhead.
"""

import json

from repro.capacity.cost import slo_violation_time
from repro.capacity.whatif import BALANCER_NODES

from benchmarks._shared import RESULTS_DIR, emit, managed_ramp, proactive_ramp

#: the reactive growth transients peak around 0.2–0.35 s; the paper's own
#: 0.5 s bound is met by both arms, so the comparison uses a tighter SLO
SLO_LATENCY_S = 0.25


def _measure(system) -> dict:
    col = system.collector
    duration = system.config.profile.duration_s
    node_seconds = BALANCER_NODES * duration
    reconfigs = 0
    for series in col.tier_replicas.values():
        node_seconds += series.integral(0.0, duration)
        reconfigs += max(0, len(series.changes) - 1)
    window = col.latencies.window(0.0, duration)
    result = {
        "slo_violation_s": slo_violation_time(
            col.latencies, 0.0, duration, SLO_LATENCY_S
        ),
        "node_hours": node_seconds / 3600.0,
        "reconfigurations": reconfigs,
        "latency_mean_ms": 1e3 * float(window.mean()),
        "completed": col.completed_requests,
        "db_growth_times_s": [
            t
            for (_, prev), (t, v) in zip(
                col.tier_replicas["database"].changes,
                col.tier_replicas["database"].changes[1:],
            )
            if v > prev
        ],
    }
    proactive = system.extensions.get("proactive")
    if proactive is not None:
        result["proactive"] = {
            "forecasts_issued": proactive.forecasts_issued,
            "whatif_evaluations": proactive.evaluations,
            "grows_triggered": proactive.grows_triggered,
            "shrinks_triggered": proactive.shrinks_triggered,
            "decisions_suppressed": proactive.decisions_suppressed,
        }
    return result


def bench_ext_proactive_vs_reactive(benchmark):
    def sweep():
        return _measure(managed_ramp()), _measure(proactive_ramp())

    reactive, proactive = benchmark.pedantic(sweep, rounds=1, iterations=1)

    overhead = proactive["node_hours"] / reactive["node_hours"] - 1.0
    lines = [
        "Extension: reactive thresholds vs proactive capacity planning "
        f"(Fig. 9 ramp, SLO {SLO_LATENCY_S * 1000:.0f} ms)",
        "",
        f"{'arm':<12}{'SLO viol (s)':>13}{'node-hours':>12}"
        f"{'reconfigs':>11}{'mean lat (ms)':>15}",
    ]
    for label, r in (("reactive", reactive), ("proactive", proactive)):
        lines.append(
            f"{label:<12}{r['slo_violation_s']:>13.0f}{r['node_hours']:>12.3f}"
            f"{r['reconfigurations']:>11}{r['latency_mean_ms']:>15.1f}"
        )
    lines += [
        "",
        f"node-hour overhead: {overhead * 100:+.1f} %",
        "db growth at: reactive "
        + ", ".join(f"{t:.0f}s" for t in reactive["db_growth_times_s"])
        + " | proactive "
        + ", ".join(f"{t:.0f}s" for t in proactive["db_growth_times_s"]),
    ]
    emit("ext_proactive", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    report = {
        "slo_latency_s": SLO_LATENCY_S,
        "reactive": reactive,
        "proactive": proactive,
        "node_hour_overhead": overhead,
    }
    (RESULTS_DIR / "ext_proactive.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )

    # The claim: planning ahead strictly reduces SLO-violation time (the
    # reactive arm must have something to shave), at bounded extra cost.
    assert reactive["slo_violation_s"] > 0.0
    assert proactive["slo_violation_s"] < reactive["slo_violation_s"]
    assert overhead < 0.15
