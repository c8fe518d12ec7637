"""Declarative market scenarios.

A :class:`MarketScenario` is a frozen, picklable value — the instance
catalog, the fleet policy (how much interruption risk the operator
tolerates, expressed as an on-demand capacity floor), spot-market
dynamics and fleet-planning knobs — so it rides inside
:class:`~repro.jade.system.ExperimentConfig` through the
content-addressed :class:`~repro.runner.cache.ResultCache` and the
process-pool :class:`~repro.runner.parallel.ExperimentRunner` unchanged.
The same scenario + seed yields a byte-identical market scorecard
whether it runs serially, in a pool worker, or resolves from the cache
(test-enforced, like the chaos and deploy scorecards).

``PRESETS`` holds the named scenarios the CLI, benchmark, sweep
``--fleet`` axis and CI smoke use; :func:`market_config` packs a
scenario into the Fig. 9 ramp (managed, self-recovery on so interrupted
spot replicas are repaired).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.market.catalog import DEFAULT_CATALOG, InstanceType, by_name

#: fleet policies, by decreasing on-demand floor (= interruption tolerance
#: bought with money): ``on-demand`` never touches the spot market,
#: ``balanced`` keeps half the capacity interruption-proof, ``spot-heavy``
#: only the quarter that hosts the balancers and one replica of each tier.
POLICIES = {"on-demand": 1.0, "balanced": 0.5, "spot-heavy": 0.25}


@dataclass(frozen=True)
class MarketScenario:
    """One heterogeneous-fleet experiment: what the market sells, how
    prices move, and how the fleet allocator shops."""

    name: str
    #: fleet policy label (sets the default ``on_demand_floor``)
    policy: str = "spot-heavy"
    #: minimum fraction of fleet capacity kept on-demand (interruption
    #: tolerance; 1.0 = never buy spot)
    on_demand_floor: float = 0.25
    #: catalog types the allocator may buy (baseline-only by default so
    #: tier balancing sees homogeneous replicas; multi-size presets
    #: exercise the best-fit-decreasing packing)
    sizes: tuple[str, ...] = ("std.small",)
    catalog: tuple[InstanceType, ...] = DEFAULT_CATALOG
    #: spot price tick period
    tick_s: float = 30.0
    #: per-tick lognormal walk sigma of the spot price
    volatility: float = 0.08
    #: mean-reversion strength toward the type's long-run spot mean
    reversion: float = 0.15
    #: base spot interruption hazard (per provisioned spot node per hour,
    #: scaled by price pressure); 0 = spot capacity is never reclaimed
    interruption_hazard_per_hour: float = 0.0
    #: interruption notice (the cloud's classic 2 minutes)
    notice_s: float = 120.0
    #: fleet-planning loop period
    plan_period_s: float = 15.0
    #: forecast horizon the demand target looks ahead over
    horizon_s: float = 120.0
    #: spare effective vCPUs kept free above the forecast demand
    headroom_vcpus: float = 1.0
    #: provisioning delay before a bought node joins the free pool
    boot_s: float = 0.0
    #: on-demand baseline nodes provisioned up-front (the two balancers
    #: plus the initial replica of each tier — never interruptible)
    reserve_nodes: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "catalog", tuple(self.catalog))
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r} (choose from {sorted(POLICIES)})"
            )
        if not 0.0 <= self.on_demand_floor <= 1.0:
            raise ValueError("on_demand_floor must be in [0, 1]")
        index = by_name(self.catalog)
        for size in self.sizes:
            if size not in index:
                raise ValueError(f"size {size!r} not in catalog")
        if not self.sizes:
            raise ValueError("need at least one purchasable size")
        if self.tick_s <= 0 or self.plan_period_s <= 0 or self.horizon_s <= 0:
            raise ValueError("market periods must be positive")
        if self.volatility < 0 or self.reversion < 0:
            raise ValueError("volatility and reversion must be >= 0")
        if self.interruption_hazard_per_hour < 0 or self.notice_s < 0:
            raise ValueError("hazard and notice must be >= 0")
        if self.headroom_vcpus < 0 or self.boot_s < 0:
            raise ValueError("headroom and boot time must be >= 0")
        if self.reserve_nodes < 4:
            raise ValueError(
                "reserve_nodes must be >= 4 (two balancers + one replica "
                "of each tier must sit on on-demand nodes)"
            )

    @property
    def base_type(self) -> InstanceType:
        """The first purchasable size — what demand is denominated in."""
        return by_name(self.catalog)[self.sizes[0]]


# ----------------------------------------------------------------------
# Preset scenarios (the CLI's --scenario / sweep's --fleet choices)
# ----------------------------------------------------------------------
def on_demand() -> MarketScenario:
    """The sanity arm: same catalog, but the allocator never buys spot.
    Fleet cost tracks the uniform pool minus rightsizing."""
    return MarketScenario("on-demand", policy="on-demand", on_demand_floor=1.0)


def balanced() -> MarketScenario:
    """Half the capacity stays on-demand; mild spot interruption rate."""
    return MarketScenario(
        "balanced", policy="balanced", on_demand_floor=0.5,
        interruption_hazard_per_hour=2.0,
    )


def spot_heavy() -> MarketScenario:
    """The cost-saving arm: everything beyond the reserve floor is spot."""
    return MarketScenario(
        "spot-heavy", policy="spot-heavy", on_demand_floor=0.25,
        interruption_hazard_per_hour=2.0,
    )


def volatile() -> MarketScenario:
    """A stress arm: violent spot prices and frequent reclaims — what the
    on-demand floor and drain-then-crash recovery are for."""
    return MarketScenario(
        "volatile", policy="spot-heavy", on_demand_floor=0.25,
        volatility=0.3, reversion=0.05,
        interruption_hazard_per_hour=30.0,
    )


def multi_size() -> MarketScenario:
    """Opens the whole catalog so best-fit-decreasing packs across
    instance shapes, not just markets."""
    return MarketScenario(
        "multi-size", policy="balanced", on_demand_floor=0.5,
        sizes=("std.small", "std.large", "cpu.large"),
        interruption_hazard_per_hour=2.0,
    )


PRESETS = {
    "on-demand": on_demand,
    "balanced": balanced,
    "spot-heavy": spot_heavy,
    "volatile": volatile,
    "multi-size": multi_size,
}


def market_config(
    scenario: MarketScenario,
    seed: int = 1,
    peak: int = 500,
    scale: float = 0.15,
):
    """Pack a scenario into the §5.2 ramp (Fig. 9) — the workload the
    cost headline is measured on.  Managed (reactive self-sizing) with
    self-recovery on: interrupted spot replicas must be repaired, not
    mourned."""
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import RampProfile

    return ExperimentConfig(
        profile=RampProfile(
            peak=peak,
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=True,
        recovery=True,
        market=scenario,
    )
