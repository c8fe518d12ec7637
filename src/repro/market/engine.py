"""Market engine: the glue between the market and the managed system.

One :class:`MarketEngine` per run owns the heterogeneous half of the
testbed: the :class:`~repro.market.spot.SpotMarket` price process, the
:class:`~repro.cluster.allocator.ClusterManager` pool (initially empty —
the engine stocks it), and the
:class:`~repro.market.allocator.FleetAllocator`.  It runs two periodic
processes:

* the **plan loop** (every ``plan_period_s``): observes the capacity the
  tiers currently hold, feeds it to a trend forecaster, and rebalances
  the fleet toward ``max(held, predicted_peak) + headroom`` effective
  vCPUs — buying the cheapest mix under the on-demand floor, retiring
  free nodes most-expensive-first.  The paper's reactive loops drive
  *replicas*; the engine drives the *pool they draw from*, exactly the
  split between an application autoscaler and a cluster autoscaler.

* the **interruption loop** (every price tick): draws a hazard per live
  spot node from the dedicated ``"market-interrupt"`` RNG stream (the
  price tape's ``"market"`` stream is never touched, so prices stay a
  pure function of seed + scenario).  A hit issues a 2-minute notice:
  the node is pulled from the free pool, its replicas are drained
  through :meth:`RepairReactor.handle_interruption` (repair now,
  on a fresh node), and the node is reclaimed — crashed — at the
  deadline regardless.

Scheduled spot reclaims can also arrive from a chaos campaign's
``spot-interruption`` :class:`~repro.chaos.faults.FaultSpec`; both paths
converge on :meth:`MarketEngine.interrupt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.capacity.forecast import make_forecaster
from repro.cluster.allocator import ClusterManager
from repro.market.allocator import FleetAllocator, Offer
from repro.market.catalog import InstanceType
from repro.market.spot import SpotMarket

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.market.scenario import MarketScenario
    from repro.metrics.collector import MetricsCollector
    from repro.simulation.kernel import SimKernel
    from repro.simulation.rng import RngStreams


def _mix_summary(mix: list[Offer]) -> str:
    counts: dict[str, int] = {}
    for offer in mix:
        key = f"{offer.itype.name}@{'spot' if offer.market == 'spot' else 'od'}"
        counts[key] = counts.get(key, 0) + 1
    return " ".join(f"{n}x {k}" for k, n in sorted(counts.items())) or "none"


@dataclass(frozen=True)
class MarketStats:
    """Plain-data distillate of a heterogeneous-fleet run: the provision
    ledger, price tape, interruption and rebalance logs, and the exact
    integrated fleet cost — everything :mod:`repro.market.costs` reads."""

    scenario: str
    policy: str
    on_demand_floor: float
    fleet_cost: float
    node_seconds: float
    provisions: list
    price_history: dict
    interruptions: list
    rebalances: list
    held_seconds_by_owner: dict
    nodes_provisioned: int

    def log_lines(self) -> list[str]:
        """The ``repro market --events`` log: each rebalance, then each
        interruption notice."""
        return [
            f"  t={entry['t']:7.1f}s  rebalance [{entry['action']}] "
            f"{entry['detail']} (target {entry['target']:.1f} vCPU)"
            for entry in self.rebalances
        ] + [
            f"  t={entry['t']:7.1f}s  interruption {entry['node']} "
            f"({entry['source']}, reclaim at t={entry['deadline']:.1f}s)"
            for entry in self.interruptions
        ]


class MarketEngine:
    """Owns market, pool and fleet for one managed-system run."""

    name = "market"

    def __init__(
        self,
        kernel: "SimKernel",
        scenario: "MarketScenario",
        streams: "RngStreams",
        make_node: Callable[[str, InstanceType, str], "Node"],
        collector: Optional["MetricsCollector"] = None,
        pool_vcpus: float = 7.0,
        system=None,
    ) -> None:
        self.kernel = kernel
        self.scenario = scenario
        self.collector = collector
        self.tracer = None
        #: the assembled system (its recovery manager and tiers are read
        #: when an interruption drains a node; the engine itself is built
        #: before either exists, because it stocks the pool they draw from)
        self.system = system
        #: live node list shared with the system (probes iterate it);
        #: nodes are appended on provision and never removed, like
        #: crashed nodes in chaos runs
        self.nodes: list["Node"] = []
        #: decorators applied to every provisioned node (the system adds
        #: e.g. the Jade management footprint here)
        self.node_decorators: list[Callable[["Node"], None]] = []
        self.market = SpotMarket(kernel, scenario, streams.get("market"))
        self._interrupt_rng = streams.get("market-interrupt")
        self.cluster = ClusterManager([])
        self.allocator = FleetAllocator(
            kernel, scenario, self.market, self.cluster, self._make_node
        )
        self._user_make_node = make_node
        self._forecaster = make_forecaster("trend")
        self._plan_task = None
        self._interrupt_task = None
        #: nodes under an active interruption notice (name → deadline)
        self._noticed: dict[str, float] = {}
        #: the reclaims those notices scheduled (cancelled by :meth:`stop`)
        self._reclaims: list = []
        #: plain-data logs for :class:`MarketStats`
        self.interruptions: list[dict] = []
        self.rebalances: list[dict] = []
        self._build_initial_fleet(pool_vcpus)

    # ------------------------------------------------------------------
    def _make_node(self, name: str, itype: InstanceType, market: str) -> "Node":
        node = self._user_make_node(name, itype, market)
        for decorate in self.node_decorators:
            decorate(node)
        self.nodes.append(node)
        return node

    def _build_initial_fleet(self, pool_vcpus: float) -> None:
        """Reserve on-demand base nodes first — FIFO allocation puts the
        balancers and the initial replica of each tier on them, so the
        non-preemptible core of the application never sits on spot — then
        fill the rest of the pool with the policy mix."""
        scn = self.scenario
        base = scn.base_type
        reserve = min(scn.reserve_nodes, int(pool_vcpus // base.cpu_capacity) or 1)
        for _ in range(reserve):
            self.allocator.provision(base, "on-demand")
        deficit = pool_vcpus - reserve * base.cpu_capacity
        mix = self.allocator.choose_mix(deficit)
        self.allocator.provision_mix(mix)
        self._log_rebalance(
            "initial",
            f"{reserve}x {base.name}@od " + _mix_summary(mix),
            pool_vcpus,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        scn = self.scenario
        self.market.tracer = self.tracer
        self.market.start()
        if self._plan_task is None:
            self._plan_task = self.kernel.every(scn.plan_period_s, self._plan)
        if (
            self._interrupt_task is None
            and scn.interruption_hazard_per_hour > 0
            and scn.on_demand_floor < 1.0
        ):
            self._interrupt_task = self.kernel.every(
                scn.tick_s, self._interrupt_tick
            )

    def stop(self) -> None:
        """Stop pricing, planning and interrupting, and cancel the
        reclaims of the notices already given."""
        self.market.stop()
        for event in self._reclaims:
            event.cancel()
        self._reclaims.clear()
        if self._plan_task is not None:
            self._plan_task.cancel()
            self._plan_task = None
        if self._interrupt_task is not None:
            self._interrupt_task.cancel()
            self._interrupt_task = None

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer  # start() hands it to the spot market

    # ------------------------------------------------------------------
    # Plan loop
    # ------------------------------------------------------------------
    def _held_vcpus(self) -> float:
        return sum(
            (n.instance.cpu_capacity if n.instance else 1.0)
            for n in self.cluster.allocated_nodes()
        )

    def _plan(self) -> None:
        now = self.kernel.now
        held = self._held_vcpus()
        self._forecaster.observe(now, held)
        predicted = self._forecaster.predicted_peak(self.scenario.horizon_s)
        if predicted != predicted:  # NaN: unobserved
            predicted = held
        target = max(held, predicted) + self.scenario.headroom_vcpus
        od, spot = self.allocator.live_capacity()
        live = od + spot
        if target > live + 1e-9:
            mix = self.allocator.choose_mix(target - live)
            self.allocator.provision_mix(mix)
            self._log_rebalance("provision", _mix_summary(mix), target)
        elif live - target >= self.scenario.base_type.cpu_capacity:
            retired = self.allocator.retire_excess(live - target)
            if retired:
                detail = " ".join(sorted(n.name for n in retired))
                self._log_rebalance("retire", detail, target)

    def _log_rebalance(self, action: str, detail: str, target: float) -> None:
        od, spot = self.allocator.live_capacity()
        t = self.kernel.now
        self.rebalances.append(
            {"t": t, "action": action, "detail": detail,
             "target": target, "od": od, "spot": spot}
        )
        if self.collector is not None:
            self.collector.record_reconfiguration(
                t, f"[market] {action}: {detail} "
                   f"(target={target:.1f} od={od:.1f} spot={spot:.1f})"
            )
        if self.tracer is not None:
            from repro.obs.events import FleetRebalanced

            self.tracer.emit(FleetRebalanced(
                t, action=action, detail=detail, target_vcpus=target,
                od_vcpus=od, spot_vcpus=spot,
            ))

    # ------------------------------------------------------------------
    # Spot interruptions
    # ------------------------------------------------------------------
    def _interrupt_tick(self) -> None:
        scn = self.scenario
        victims = sorted(
            (
                n
                for n in self.cluster.free_nodes()
                + self.cluster.allocated_nodes()
                if n.market == "spot" and n.up and n.name not in self._noticed
            ),
            key=lambda n: n.name,
        )
        for node in victims:
            itype = node.instance
            pressure = self.market.price_pressure(itype.name) if itype else 1.0
            p = (
                scn.interruption_hazard_per_hour
                * pressure
                * scn.tick_s
                / 3600.0
            )
            if float(self._interrupt_rng.random()) < p:
                self.interrupt(node, source="market")

    def interrupt(self, node: "Node", source: str = "market") -> float:
        """Issue an interruption notice for ``node``: drain its replicas
        now, reclaim (crash) it at the deadline.  Returns the deadline."""
        now = self.kernel.now
        deadline = now + self.scenario.notice_s
        if node.name in self._noticed:
            return self._noticed[node.name]
        self._noticed[node.name] = deadline
        itype_name = node.instance.name if node.instance else "?"
        price = (
            self.market.price(itype_name)
            if node.instance and node.instance.spot
            else 0.0
        )
        self.interruptions.append(
            {"t": now, "node": node.name, "type": itype_name,
             "deadline": deadline, "price": price, "source": source}
        )
        if self.collector is not None:
            self.collector.record_reconfiguration(
                now,
                f"[market] interruption notice for {node.name} "
                f"(reclaim at t={deadline:.0f}s, {source})",
            )
        if self.tracer is not None:
            from repro.obs.events import InterruptionNotice

            self.tracer.emit(InterruptionNotice(
                now, node=node.name, instance_type=itype_name,
                deadline=deadline, price=round(price, 6), source=source,
            ))
        # A free node must not be handed out during its notice window.
        if self.cluster.owner_of(node) is None:
            self.cluster.discard(node)
        self._drain(node)
        self._reclaims.append(
            self.kernel.schedule(self.scenario.notice_s, self._reclaim, node)
        )
        return deadline

    def _drain(self, node: "Node") -> int:
        """Repair every tier replica on the node *now* (the whole point of
        the notice): recovery unbinds it, discards the node from the pool
        and grows a replacement on a fresh node."""
        system = self.system
        if system is None:
            return 0
        recovery = getattr(system, "recovery", None)
        if recovery is None:
            return 0
        drained = 0
        for tier in (system.app_tier, system.db_tier):
            for record in list(tier.replicas):
                if record.node is node:
                    server = getattr(record.component.content, "server", None)
                    if server is not None:
                        recovery.handle_interruption(server)
                        drained += 1
        return drained

    def _reclaim(self, node: "Node") -> None:
        """The notice expired: the market takes the node back, drained or
        not (idempotent if it already crashed)."""
        if node.up:
            node.crash()
        self.cluster.discard(node)
        self.allocator.close(node.name, reason="spot-reclaim")
        self._noticed.pop(node.name, None)
        if self.collector is not None:
            self.collector.record_reconfiguration(
                self.kernel.now, f"[market] spot reclaim of {node.name}"
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def fleet_cost(self, t_end: Optional[float] = None) -> float:
        return self.allocator.fleet_cost(t_end)

    def price_history(self) -> dict[str, list[tuple[float, float]]]:
        return {k: list(v) for k, v in self.market.history.items()}

    def distill(self) -> MarketStats:
        scn = self.scenario
        return MarketStats(
            scenario=scn.name,
            policy=scn.policy,
            on_demand_floor=scn.on_demand_floor,
            fleet_cost=self.fleet_cost(),
            node_seconds=self.allocator.node_seconds(),
            provisions=[p.as_dict() for p in self.allocator.provisions],
            price_history=self.price_history(),
            interruptions=list(self.interruptions),
            rebalances=list(self.rebalances),
            held_seconds_by_owner=dict(self.cluster.node_seconds_by_owner()),
            nodes_provisioned=len(self.allocator.provisions),
        )
