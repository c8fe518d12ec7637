"""Fleet-cost scorecard.

Turns finished market runs into the numbers the cost story is told with:
exact integrated **fleet cost** (piecewise-constant spot tape), the
**uniform-pool baseline** it is measured against (``pool_nodes`` nodes of
the calibrated machine held for the whole run at the flat
``CostModel.node_hour_cost`` — precisely what every pre-market experiment
in this repo pays), the **savings**, and the SLO metrics proving the
savings did not come out of latency — per seed, with the metrics that
:func:`repro.market.bench.evaluate_mixes` aggregates across seeds with
95 % confidence intervals.

Everything here is a pure function of :class:`CompletedRun` plain data
(:class:`~repro.market.engine.MarketStats` plus the collector), so the
scorecard of a cached or pool-worker run is byte-identical to a serial
one — :func:`~repro.metrics.aggregates.scorecard_json` canonicalizes
exactly like the chaos and deploy scorecards.
"""

from __future__ import annotations

from repro.capacity.cost import service_metrics
from repro.metrics.aggregates import format_ci

#: hourly price of the uniform pool's calibrated machine (std.small ==
#: CostModel.node_hour_cost — see repro.market.catalog)
UNIFORM_NODE_HOUR_COST = 1.0


def _run_window(config) -> float:
    """Total simulated seconds of a run (profile + drain tail) — the
    window both arms are priced over."""
    return config.profile.duration_s + config.tail_s


def uniform_fleet_cost(config) -> float:
    """What the same run pays on the paper's uniform pool: every one of
    ``pool_nodes`` held for the entire run at the flat rate (the pool is
    provisioned up-front and never returned)."""
    return config.pool_nodes * UNIFORM_NODE_HOUR_COST * _run_window(config) / 3600.0


def score_run(run, slo_latency_s: float = 0.5) -> dict:
    """Per-run scorecard of one market execution (a :class:`CompletedRun`
    — or any object exposing ``config``/``collector``/``extensions``)."""
    market = run.extensions.get("market")
    if market is None:
        raise ValueError("run has no market scenario attached")
    config = run.config
    window = _run_window(config)

    spot_seconds = 0.0
    for prov in market.provisions:
        t1 = window if prov["t1"] is None else min(prov["t1"], window)
        if prov["market"] == "spot":
            spot_seconds += max(0.0, t1 - prov["t0"])
    uniform = uniform_fleet_cost(config)
    fleet = market.fleet_cost
    reclaims = sum(1 for p in market.provisions if p["reason"] == "spot-reclaim")

    return {
        "seed": config.seed,
        "scenario": market.scenario,
        "policy": market.policy,
        "fleet_cost": fleet,
        "uniform_cost": uniform,
        "savings_pct": 100.0 * (1.0 - fleet / uniform) if uniform else float("nan"),
        "node_hours": market.node_seconds / 3600.0,
        "uniform_node_hours": config.pool_nodes * window / 3600.0,
        "spot_share": (
            spot_seconds / market.node_seconds
            if market.node_seconds
            else 0.0
        ),
        "nodes_provisioned": market.nodes_provisioned,
        "interruptions": len(market.interruptions),
        "reclaims": reclaims,
        "rebalances": len(market.rebalances),
        "held_node_hours_by_owner": {
            owner: seconds / 3600.0
            for owner, seconds in sorted(market.held_seconds_by_owner.items())
        },
        **service_metrics(run.collector, config.profile.duration_s, slo_latency_s),
    }


def score_uniform_run(run, slo_latency_s: float = 0.5) -> dict:
    """The same metric keys for a uniform-pool run (``market=None``) —
    the baseline arm of the cost comparison."""
    config = run.config
    window = _run_window(config)
    uniform = uniform_fleet_cost(config)
    return {
        "seed": config.seed,
        "scenario": "uniform",
        "policy": "uniform",
        "fleet_cost": uniform,
        "uniform_cost": uniform,
        "savings_pct": 0.0,
        "node_hours": config.pool_nodes * window / 3600.0,
        "uniform_node_hours": config.pool_nodes * window / 3600.0,
        "spot_share": 0.0,
        "nodes_provisioned": config.pool_nodes,
        "interruptions": 0,
        "reclaims": 0,
        "rebalances": 0,
        "held_node_hours_by_owner": {},
        **service_metrics(run.collector, config.profile.duration_s, slo_latency_s),
    }


#: per-seed metrics aggregated with mean/ci95 across seeds
AGGREGATED = (
    "fleet_cost",
    "uniform_cost",
    "savings_pct",
    "node_hours",
    "spot_share",
    "slo_violation_s",
    "goodput_rps",
    "availability",
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
        f"Scenario '{scorecard['scenario']}' "
        f"(policy: {scorecard['policy']}, "
        f"seeds: {', '.join(str(s) for s in scorecard['seeds'])})",
        f"  fleet cost          : {fmt('fleet_cost')} "
        f"(uniform pool: {fmt('uniform_cost')})",
        f"  savings             : {fmt('savings_pct', unit=' %')}",
        f"  node-hours          : {fmt('node_hours', unit=' h')}",
        f"  spot share          : {fmt('spot_share', scale=100.0, unit=' %')}",
        f"  SLO violation       : {fmt('slo_violation_s', unit=' s')} "
        f"(SLO {scorecard['slo_latency_s'] * 1000:.0f} ms)",
        f"  goodput             : {fmt('goodput_rps', unit=' req/s')}",
        f"  availability        : {fmt('availability', scale=100.0, unit=' %')}",
    ]
    interruptions = sum(r["interruptions"] for r in scorecard["per_seed"])
    reclaims = sum(r["reclaims"] for r in scorecard["per_seed"])
    if interruptions or reclaims:
        lines.append(
            f"  interruptions       : {interruptions} notices, "
            f"{reclaims} reclaims"
        )
    return lines
