"""Instance-type catalog: what the node market sells.

The paper's Cluster Manager draws from a *uniform* pool (§3.3).  A real
fleet buys capacity from a menu of instance **types** — so a node gets a
typed capacity/price profile here: vCPU count, a per-vCPU speed factor
relative to the calibrated 2006-era machine, memory, and an hourly
on-demand price.  Spot-capable types can additionally be bought at the
market's fluctuating spot price (see :mod:`repro.market.spot`) at the
cost of 2-minute interruption notices.

Everything is a frozen, picklable value, like
:class:`~repro.chaos.campaign.ChaosCampaign`: a catalog rides inside a
:class:`~repro.market.scenario.MarketScenario` through the cached
process-pool runner unchanged.

Prices are expressed in the cost model's units: the baseline
``std.small`` costs exactly ``CostModel.node_hour_cost`` (1.0) per hour,
so a uniform on-demand pool prices identically under the flat rate and
under the catalog — the market arms differ only where they genuinely
buy different capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

MARKETS = ("on-demand", "spot")


@dataclass(frozen=True)
class InstanceType:
    """One purchasable machine shape."""

    name: str
    vcpus: int
    #: per-vCPU speed multiplier vs the calibrated baseline machine
    cpu_factor: float = 1.0
    memory_mb: float = 1024.0
    #: on-demand price per hour (cost-model units)
    hourly_price: float = 1.0
    #: purchasable as preemptible spot capacity?
    spot: bool = False
    #: long-run mean spot price as a fraction of the on-demand price
    spot_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if self.cpu_factor <= 0 or self.memory_mb <= 0:
            raise ValueError("cpu_factor and memory_mb must be positive")
        if self.hourly_price <= 0:
            raise ValueError("hourly_price must be positive")
        if not 0.0 < self.spot_fraction <= 1.0:
            raise ValueError("spot_fraction must be in (0, 1]")

    @property
    def cpu_capacity(self) -> float:
        """Effective vCPUs: what the fleet allocator packs against."""
        return self.vcpus * self.cpu_factor

    @property
    def spot_mean_price(self) -> float:
        """Long-run mean of the spot price walk."""
        return self.hourly_price * self.spot_fraction


#: the default menu: the baseline machine, a double, and a compute-tuned
#: shape — larger instances are slightly cheaper per vCPU, as in every
#: real price book, so best-fit-decreasing has real choices to make.
DEFAULT_CATALOG: tuple[InstanceType, ...] = (
    InstanceType("std.small", vcpus=1, cpu_factor=1.0, memory_mb=1024.0,
                 hourly_price=1.0, spot=True, spot_fraction=0.3),
    InstanceType("std.large", vcpus=2, cpu_factor=1.0, memory_mb=2048.0,
                 hourly_price=1.9, spot=True, spot_fraction=0.3),
    InstanceType("cpu.large", vcpus=2, cpu_factor=1.3, memory_mb=1536.0,
                 hourly_price=2.4, spot=True, spot_fraction=0.35),
)


def by_name(catalog: tuple[InstanceType, ...]) -> dict[str, InstanceType]:
    index = {itype.name: itype for itype in catalog}
    if len(index) != len(catalog):
        raise ValueError("duplicate instance type names in catalog")
    return index
