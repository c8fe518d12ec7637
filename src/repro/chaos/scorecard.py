"""Resilience scorecard.

Turns finished campaign runs into the numbers a resilience story is told
with: MTTR (fault injection → replacement replica active), detection
latency, availability (completed / attempted requests), goodput and SLO
violation time under fault — per seed, with the metrics that
:func:`repro.chaos.bench.score_campaign` aggregates across seeds with
95 % confidence intervals (the same mean/ci95 convention as
``BENCH_engine.json``).

Everything here is a pure function of :class:`CompletedRun` plain data
(the chaos event log, the recovery manager's detection log and the
collector's reconfiguration log), so the scorecard of a cached or
pool-worker run is byte-identical to a serial one —
:func:`~repro.metrics.aggregates.scorecard_json` canonicalizes (sorted
keys, rounded floats) to make that testable.
"""

from __future__ import annotations

from typing import Optional

from repro.capacity.cost import service_metrics
from repro.chaos.faults import DISRUPTIVE
from repro.metrics.aggregates import format_ci


def _repairs_by_node(collector) -> dict[str, list[tuple[float, str, float]]]:
    """Completed repairs per tier as ``(start_t, failed_node, done_t)``.

    A repair episode leaves two lines in the reconfiguration log: a
    ``repair: <name> failed on <node>`` start (naming the *faulted* node)
    and, later, a ``grow: <name> active on <node>`` completion (naming the
    *replacement* node).  The tier's ``busy`` flag serializes grows, so
    within a tier the k-th repair start pairs FIFO with the earliest
    unused grow completion after it — this holds even when the recovery
    manager's retry loop re-issues a grow without a fresh repair line.
    With self-optimization off (``campaign_config``), every ``grow: ...
    active`` entry is such a repair completion.
    """
    starts: dict[str, list[tuple[float, str]]] = {}
    completions: dict[str, list[float]] = {}
    for t, desc in collector.reconfigurations:
        if not desc.startswith("["):
            continue
        tier = desc[1 : desc.index("]")]
        if "repair: " in desc and " failed on " in desc:
            node = desc[desc.index(" failed on ") + len(" failed on ") :]
            starts.setdefault(tier, []).append((t, node))
        elif "grow:" in desc and " active on " in desc:
            completions.setdefault(tier, []).append(t)
    repairs: dict[str, list[tuple[float, str, float]]] = {}
    for tier, tier_starts in starts.items():
        pool = completions.get(tier, [])
        used: set[int] = set()
        for start_t, node in tier_starts:
            for i, done_t in enumerate(pool):
                if i not in used and done_t > start_t:
                    used.add(i)
                    repairs.setdefault(tier, []).append((start_t, node, done_t))
                    break
    return repairs


def _match(
    fault_t: float,
    node: str,
    pool: list[tuple[float, str, float]],
    used: set[int],
) -> Optional[float]:
    """Completion time of the earliest unused repair *of this node* whose
    start is at/after ``fault_t``.  Matching by node is what keeps a
    Poisson stream hitting the same node repeatedly paired correctly:
    each repair goes to the earliest unrepaired fault on that node, never
    to a concurrent fault elsewhere in the tier."""
    for i, (start_t, repair_node, done_t) in enumerate(pool):
        if i not in used and repair_node == node and start_t >= fault_t:
            used.add(i)
            return done_t
    return None


def score_run(run, slo_latency_s: float = 0.5) -> dict:
    """Per-run scorecard of one campaign execution (a :class:`CompletedRun`
    — or any object exposing ``config``/``collector``/``extensions``)."""
    chaos = run.extensions.get("chaos")
    if chaos is None:
        raise ValueError("run has no chaos campaign attached")
    col = run.collector
    duration = run.config.profile.duration_s

    disruptions = [
        e for e in chaos.events if e["fault"] in DISRUPTIVE and e["node"]
    ]
    repairs = _repairs_by_node(col)
    detections = sorted(chaos.detections, key=lambda d: d["t"])

    mttrs: list[float] = []
    detect_latencies: list[float] = []
    used_repairs: dict[str, set[int]] = {}
    used_detections: set[int] = set()
    unrepaired = 0
    for event in sorted(disruptions, key=lambda e: e["t"]):
        tier = event["tier"]
        repaired_t = _match(
            event["t"],
            event["node"],
            repairs.get(tier, []),
            used_repairs.setdefault(tier, set()),
        )
        if repaired_t is None:
            unrepaired += 1
        else:
            mttrs.append(repaired_t - event["t"])
        for i, det in enumerate(detections):
            if i not in used_detections and det["tier"] == tier and det["t"] >= event["t"]:
                used_detections.add(i)
                detect_latencies.append(det["t"] - event["t"])
                break

    return {
        "seed": run.config.seed,
        "faults_injected": chaos.faults_injected,
        "disruptions": len(disruptions),
        "repairs_completed": len(mttrs),
        "unrepaired": unrepaired,
        "mttr_mean_s": _mean_or_nan(mttrs),
        "mttr_max_s": max(mttrs) if mttrs else float("nan"),
        "detect_mean_s": _mean_or_nan(detect_latencies),
        "detections": len(detections),
        **service_metrics(col, duration, slo_latency_s),
    }


def _mean_or_nan(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


#: per-seed metrics aggregated with mean/ci95 across seeds
AGGREGATED = (
    "mttr_mean_s",
    "detect_mean_s",
    "availability",
    "goodput_rps",
    "slo_violation_s",
    "repairs_completed",
)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_scorecard(scorecard: dict) -> list[str]:
    """Human-readable scorecard block for the CLI."""
    agg = scorecard["aggregate"]

    def fmt(metric: str, scale: float = 1.0, unit: str = "") -> str:
        return format_ci(agg[metric], scale, unit)

    lines = [
        f"Campaign '{scorecard['campaign']}' "
        f"(detector: {scorecard['detector']}, "
        f"seeds: {', '.join(str(s) for s in scorecard['seeds'])})",
        f"  MTTR                : {fmt('mttr_mean_s', unit=' s')}",
        f"  detection latency   : {fmt('detect_mean_s', unit=' s')}",
        f"  availability        : {fmt('availability', scale=100.0, unit=' %')}",
        f"  goodput             : {fmt('goodput_rps', unit=' req/s')}",
        f"  SLO violation       : {fmt('slo_violation_s', unit=' s')} "
        f"(SLO {scorecard['slo_latency_s'] * 1000:.0f} ms)",
    ]
    total_disruptions = sum(r["disruptions"] for r in scorecard["per_seed"])
    total_repairs = sum(r["repairs_completed"] for r in scorecard["per_seed"])
    total_unrepaired = sum(r["unrepaired"] for r in scorecard["per_seed"])
    lines.append(
        f"  repairs             : {total_repairs}/{total_disruptions} faults"
        + (f" ({total_unrepaired} unrepaired)" if total_unrepaired else "")
    )
    return lines
