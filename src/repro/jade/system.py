"""End-to-end experiment harness.

:class:`ManagedSystem` assembles the full testbed of §5.2:

* a cluster (two load-balancer nodes + a pool of worker nodes, LAN);
* the RUBiS J2EE application deployed from an ADL description
  (PLB → Tomcat×1 → C-JDBC → MySQL×1 initially), or another
  :class:`Application` (the Figure 2 preset in :mod:`repro.jade.three_tier`);
* optionally the Jade managers: self-optimization (two CPU control loops
  or the latency-SLO loop) and self-recovery, written as one manager ADL
  document and deployed by the same deployment service, and arbitration;
* the RUBiS client emulator driving the configured workload profile;
* a metrics sampler reproducing Table 1's node CPU/memory accounting.

Every optional subsystem (the deployed managers, proactive manager,
chaos injector, deploy manager, spot market) is a
:class:`SystemExtension`: it is built here, then started, stopped,
traced and distilled through the one ordered tuple
:attr:`ManagedSystem.extensions`.  The tuple's order is the start order,
and the start order fixes the dispatch order of same-instant kernel
events, so it is part of every output digest.  The reconfiguring
managers share one :class:`~repro.jade.control_loop.InhibitionLock`.

The harness is what every quantitative benchmark and example drives; a
single :class:`ExperimentConfig` pins all parameters so a run is
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Optional, Protocol

from repro.cluster.allocator import ClusterManager
from repro.cluster.installer import Package, SoftwareInstallationService
from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.fractal.adl import parse_adl
from repro.jade.actuators import TierManager
from repro.jade.control_loop import InhibitionLock, register_management_types
from repro.jade.deployment import DeployedApplication, DeploymentService
from repro.jade.self_optimization import (
    DB_LOOP_DEFAULTS,
    APP_LOOP_DEFAULTS,
    LoopConfig,
    ManagerDeployment,
    manager_adl,
)
from repro.jade.sensors import CpuProbe, UtilizationSampler
from repro.legacy.cjdbc import BackendState
from repro.metrics.collector import MetricsCollector
from repro.legacy.directory import Directory
from repro.simulation.kernel import SimKernel
from repro.simulation.resources import ThrashingCurve, constant_capacity
from repro.simulation.rng import RngStreams
from repro.wrappers.registry import default_factory_registry
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.clients import ClientEmulator
from repro.workload.profiles import RampProfile, WorkloadProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.capacity.proactive import ProactiveConfig
    from repro.chaos.campaign import ChaosCampaign
    from repro.deploy.scenario import DeployScenario
    from repro.market.scenario import MarketScenario
    from repro.obs.tracer import Tracer

#: ADL description of the initial RUBiS deployment (§5.2: "Initially, the
#: J2EE system is deployed with one application server (Tomcat) and one
#: database server (MySQL)").  Spec order fixes both node allocation and
#: start order (a database must be running before its load balancer).
RUBIS_ADL = """
<definition name="rubis-j2ee">
  <component name="mysql" type="mysql" package="mysql"/>
  <component name="cjdbc" type="cjdbc" package="cjdbc"/>
  <component name="plb" type="plb" package="plb"/>
  <component name="tomcat" type="tomcat" package="tomcat"/>
  <binding client="cjdbc.backends" server="mysql.mysql"/>
  <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
  <binding client="plb.workers" server="tomcat.http"/>
</definition>
"""


@dataclass(frozen=True)
class Application:
    """What a :class:`ManagedSystem` deploys and manages.

    ``adl`` is the architecture, ``packages`` the software repository its
    specs install from, and ``tiers`` names the managed tiers: ``(spec,
    tier name)`` pairs, the first resized by the ``app`` loop, the second
    by the ``db`` loop.  Each tier's balancer, interfaces and outgoing
    bindings are read off the ADL's bindings (see
    :meth:`ManagedSystem._tier_manager`).
    """

    adl: str
    packages: tuple[Package, ...]
    tiers: tuple[tuple[str, str], tuple[str, str]]

    def has(self, *spec_names: str) -> bool:
        names = {spec.name for spec in parse_adl(self.adl).iter_specs()}
        return names.issuperset(spec_names)


#: the paper's testbed: RUBiS behind PLB and C-JDBC, Tomcat and MySQL managed
RUBIS = Application(
    RUBIS_ADL,
    (
        Package("tomcat", "3.3.2", size_mb=18.0, setup_time_s=2.0, footprint_mb=24.0),
        Package("mysql", "4.0.17", size_mb=35.0, setup_time_s=3.0, footprint_mb=30.0),
        Package("cjdbc", "2.0.2", size_mb=8.0, setup_time_s=1.5, footprint_mb=12.0),
        Package("plb", "0.3", size_mb=1.0, setup_time_s=0.5, footprint_mb=4.0),
        Package("apache", "1.3", size_mb=6.0, setup_time_s=1.0, footprint_mb=10.0),
    ),
    (("tomcat", "application"), ("mysql", "database")),
)


@dataclass
class ExperimentConfig:
    """All knobs of one experiment run."""

    seed: int = 1
    #: the deployed application and its managed tiers
    application: Application = RUBIS
    #: self-optimization manager active?
    managed: bool = True
    #: self-recovery manager active?
    recovery: bool = False
    #: arbitration manager mediating tier operations?
    arbitration: bool = False
    profile: WorkloadProfile = field(default_factory=RampProfile)
    calibration: Calibration = DEFAULT_CALIBRATION
    #: worker nodes available for replicas (paper: 2 app + 3 db at peak)
    pool_nodes: int = 7
    #: CPU speed of every node relative to the calibrated 2006-era machine
    #: (2.0 = hardware twice as fast; shifts every scaling point)
    node_speed: float = 1.0
    #: emulate clients in batches of this size (one ClientCohort session
    #: stands for ``cohort`` identical browsers); 1 = per-client sessions
    cohort: int = 1
    #: scale node speed, memory, and the thrashing knee together (weak
    #: scaling: hardware_scale == cohort keeps per-constituent utilization
    #: identical to the unscaled run)
    hardware_scale: float = 1.0
    #: drive the workload with the mean-field fluid engine (see
    #: ``repro.workload.fluid``) instead of discrete cohort events; the
    #: control loops only see sampled CPU, so they run unmodified
    fluid: bool = False
    #: hybrid handoff point: populations below this run discrete cohorts,
    #: at/above it the fluid flow takes over (<= 0 = always fluid; only
    #: meaningful with ``fluid=True``)
    fluid_threshold: int = 0
    #: coarse tick of the fluid flow update (also the hybrid dispatcher's
    #: population-adjustment cadence; 1 s matches the probe period)
    fluid_tick_s: float = 1.0
    inhibition_s: float = 60.0
    app_loop: LoopConfig = field(default_factory=lambda: replace(APP_LOOP_DEFAULTS))
    db_loop: LoopConfig = field(default_factory=lambda: replace(DB_LOOP_DEFAULTS))
    #: apply the thrashing capacity curve to worker nodes
    thrashing: bool = True
    #: replace the CPU-threshold optimizer with the latency-SLO manager
    #: (extension; requires ``managed=True``)
    use_slo_manager: bool = False
    slo_max_latency_s: float = 0.5
    slo_min_latency_s: float = 0.06
    #: run the proactive capacity manager alongside the reactive loops
    #: (extension; see ``repro.capacity``)
    proactive: bool = False
    #: knobs of the proactive planning loop (None = defaults)
    proactive_config: Optional["ProactiveConfig"] = None
    #: chaos campaign injected during the run (extension; see
    #: ``repro.chaos`` — a picklable fault schedule, so chaos runs are
    #: cacheable and fan out across seeds like any other experiment)
    chaos: Optional["ChaosCampaign"] = None
    #: deployment scenario executed during the run (extension; see
    #: ``repro.deploy`` — a picklable value like ``chaos``, so deploy
    #: runs are cacheable and fan out across seeds unchanged)
    deploy: Optional["DeployScenario"] = None
    #: heterogeneous node market (extension; see ``repro.market`` — a
    #: picklable value like ``chaos``/``deploy``: instance-type catalog,
    #: spot price process with interruption notices, and a cost-aware
    #: fleet allocator stocking the node pool in place of the paper's
    #: fixed uniform pool of ``pool_nodes``)
    market: Optional["MarketScenario"] = None
    #: sample node CPU/memory every second (Table 1)
    sample_nodes: bool = True
    #: extra simulated time after the profile ends (lets requests drain)
    tail_s: float = 60.0
    #: browsers abandon requests after this long (None = the paper's
    #: patient emulator)
    client_timeout_s: Optional[float] = None
    #: collect decision traces (zero-cost when False: no tracer is wired)
    trace: bool = False
    #: JSONL sink for the trace (implies ``trace``)
    trace_jsonl: Optional[str] = None
    #: in-memory trace ring size
    trace_ring: int = 65536
    #: run identifier stamped on every trace record (default derived from
    #: the seed, so re-runs are comparable)
    trace_run_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.fluid_tick_s <= 0.0:
            raise ValueError("fluid_tick_s must be positive")
        if not self.fluid and (self.fluid_threshold != 0 or self.fluid_tick_s != 1.0):
            raise ValueError("fluid_threshold and fluid_tick_s require fluid=True")
        if self.use_slo_manager and not self.managed:
            raise ValueError("use_slo_manager requires managed=True")
        if self.proactive_config is not None and not self.proactive:
            raise ValueError("proactive_config requires proactive=True")
        # These read the PLB or C-JDBC balancer (or assume the RUBiS shape).
        needing = [
            name
            for name, on in (
                ("fluid", self.fluid),
                ("market", self.market is not None),
                ("chaos", self.chaos is not None),
                ("deploy", self.deploy is not None),
                ("proactive", self.proactive),
                ("use_slo_manager", self.use_slo_manager),
            )
            if on
        ]
        if needing and not self.application.has("plb", "cjdbc"):
            raise ValueError(
                f"{', '.join(needing)} need an application with plb and cjdbc"
            )


class SystemExtension(Protocol):
    """An optional subsystem of :class:`ManagedSystem`.

    The system builds each one, then drives all of them through
    :attr:`ManagedSystem.extensions`: ``start`` in tuple order before the
    client emulator, ``stop`` in tuple order after the tail drain,
    ``attach_tracer`` when tracing is on (the extension wires its own
    sub-parts: a detector, a lock), and ``distill`` once the run is
    finished.  A new optional subsystem enters through this seam.
    """

    #: key of the distilled stats in ``CompletedRun.extensions``
    name: str

    def start(self) -> None: ...

    def stop(self) -> None: ...

    def attach_tracer(self, tracer: Tracer) -> None: ...

    def distill(self) -> Optional[object]:
        """Picklable frozen-dataclass stats, or None when there are none."""


class ManagedSystem:
    """A fully-assembled testbed ready to run."""

    def __init__(self, config: Optional[ExperimentConfig] = None) -> None:
        self.config = config or ExperimentConfig()
        cfg = self.config
        self.kernel = SimKernel()
        self.streams = RngStreams(cfg.seed)
        self.collector = MetricsCollector()
        self.lan = Lan()
        self.directory = Directory()
        cal = cfg.calibration

        # --- cluster ---------------------------------------------------
        hs = cfg.hardware_scale
        capacity = (
            ThrashingCurve(
                int(round(cal.db_thrash_knee * hs)),
                cal.db_thrash_slope / hs,
                cal.db_thrash_floor,
            )
            if cfg.thrashing
            else constant_capacity
        )
        self.market = None
        if cfg.market is not None:
            # Heterogeneous fleet: the market engine stocks the pool with
            # typed nodes (reserve on-demand first, then the policy mix)
            # instead of the paper's fixed uniform `pool_nodes`.
            from repro.market.engine import MarketEngine

            self._node_capacity = capacity
            self.market = MarketEngine(
                self.kernel,
                cfg.market,
                self.streams,
                self._market_node,
                collector=self.collector,
                pool_vcpus=float(cfg.pool_nodes),
                system=self,
            )
            self.nodes = self.market.nodes
            self.cluster = self.market.cluster
        else:
            self.nodes = [
                Node(
                    self.kernel,
                    f"node{i}",
                    cpu_speed=cfg.node_speed * hs,
                    capacity_model=capacity,
                    memory_mb=cal.node_memory_mb * hs,
                    base_os_mb=cal.node_base_os_mb,
                    per_job_mb=cal.per_job_mb,
                )
                for i in range(1, cfg.pool_nodes + 1)
            ]
            self.cluster = ClusterManager(self.nodes)
        self.installer = SoftwareInstallationService(self.kernel, self.lan)
        for pkg in cfg.application.packages:
            self.installer.register(pkg)

        # --- deploy the application -------------------------------------
        # One registry and one deployment service for the application and
        # for Jade's own managers (§3.3).
        registry = default_factory_registry()
        register_management_types(registry)
        self.deployer = DeploymentService(
            self.kernel, registry, self.cluster, self.directory, self.installer, self.lan
        )
        self.app: DeployedApplication = self.deployer.deploy(
            parse_adl(cfg.application.adl)
        )
        # The RUBiS balancers, which the fluid engine and the extensions
        # read (None in an application without them).
        self.plb, self.cjdbc = (
            self.app.instance(name) if name in self.app.components else None
            for name in ("plb", "cjdbc")
        )
        self.app.start()

        # --- tier managers (actuators) ----------------------------------
        self.arbitration = None
        if cfg.arbitration:
            from repro.jade.arbitration import ArbitrationManager

            self.arbitration = ArbitrationManager(self.kernel)
        self.app_tier, self.db_tier = (
            self._tier_manager(spec_name, tier_name)
            for spec_name, tier_name in cfg.application.tiers
        )
        # The front balancer's handler is what the emulated browsers hit.
        self.entry = self.app_tier.balancer.content.server.handle

        # --- Jade managers ----------------------------------------------
        # One inhibition lock for every reconfiguring manager (§5.2: a
        # reconfiguration by any loop — reactive, proactive or a
        # deployment — inhibits all of them).
        self.inhibition = InhibitionLock(self.kernel, cfg.inhibition_s)
        adl = manager_adl(cfg, self.app_tier.tier_name, self.db_tier.tier_name)
        self.managers = None
        if adl is not None:
            self.managers = ManagerDeployment(
                self.deployer,
                adl,
                (self.app_tier, self.db_tier),
                self.inhibition,
                self.collector,
            )
        # The self-optimization and self-recovery managers' read points.
        self.optimizer = self.managers if cfg.managed else None
        self.recovery = self.managers.recovery if cfg.recovery else None
        if cfg.managed:
            # Jade's components on every node (Table 1's memory overhead).
            for node in self.nodes:
                self._register_mgmt(node)
            if self.market is not None:
                # ... including nodes the fleet allocator buys later.
                self.market.node_decorators.append(self._register_mgmt)

        # --- chaos injection (extension) ---------------------------------
        # Wired like the proactive manager: lazily imported, sharing the
        # seeded RNG streams (its own "chaos" stream) so a campaign is
        # reproducible from the experiment seed.
        self.chaos = None
        if cfg.chaos is not None:
            from repro.chaos.faults import ChaosInjector

            self.chaos = ChaosInjector(
                self, cfg.chaos, rng=self.streams.get("chaos")
            )

        # --- tier CPU recording for Figures 6 & 7 --------------------------
        # With Jade, the real probes' readings are recorded; without Jade a
        # *passive* measurement probe (zero CPU cost — it models the
        # experimenters' external instrumentation, not a management
        # component) produces the comparison curves.  ``_tier_probes``
        # holds whichever of the two feeds each tier's CPU reading.
        self._passive_probes = []
        self._tier_probes = {}
        loops = self.optimizer.loops if self.optimizer is not None else {}
        for label, tier, loop_cfg in (
            ("app", self.app_tier, cfg.app_loop),
            ("db", self.db_tier, cfg.db_loop),
        ):
            if label in loops:
                probe = loops[label].probe
            else:
                probe = CpuProbe(
                    self.kernel,
                    nodes_provider=tier.active_nodes,
                    window_s=loop_cfg.window_s,
                    period_s=1.0,
                    probe_demand_s=0.0,
                    name=f"passive-{tier.tier_name}",
                )
                self._passive_probes.append(probe)
            probe.subscribe(partial(self._record_tier_cpu, tier.tier_name))
            self._tier_probes[label] = probe

        # --- workload ----------------------------------------------------
        if cfg.fluid:
            # Hybrid fluid/discrete engine: cohorts below the threshold,
            # mean-field flow above it.  The engine reads the live tier
            # membership through the same ``active_nodes`` providers the
            # CPU probes use, so reconfigurations (and market/chaos node
            # churn) are reflected on the next tick.
            from repro.workload.fluid import FluidEngine, HybridWorkload

            engine = FluidEngine(
                self.kernel,
                self.collector,
                calibration=cal,
                app_nodes=self.app_tier.active_nodes,
                db_nodes=self.db_tier.active_nodes,
                balancers=(
                    (
                        self.app.node_of(self.plb),
                        self.plb.content.balancer.proxy_demand,
                    ),
                    (
                        self.app.node_of(self.cjdbc),
                        self.cjdbc.content.controller.route_demand,
                    ),
                ),
                lan=self.lan,
            )
            self.emulator = HybridWorkload(
                self.kernel,
                entry=self.entry,
                profile=cfg.profile,
                collector=self.collector,
                streams=self.streams,
                engine=engine,
                calibration=cal,
                threshold=cfg.fluid_threshold,
                tick_s=cfg.fluid_tick_s,
                request_timeout_s=cfg.client_timeout_s,
                cohort=cfg.cohort,
            )
        else:
            self.emulator = ClientEmulator(
                self.kernel,
                entry=self.entry,
                profile=cfg.profile,
                collector=self.collector,
                streams=self.streams,
                calibration=cal,
                request_timeout_s=cfg.client_timeout_s,
                cohort=cfg.cohort,
            )

        # --- proactive capacity manager (extension) ----------------------
        # Built after the emulator so its load provider can read the live
        # client population; it shares the reactive loops' inhibition lock
        # (a proactive reconfiguration inhibits reactive churn and vice
        # versa) and, through the tier actuators, the arbitration manager.
        self.proactive = None
        if cfg.proactive:
            from repro.capacity.proactive import ProactiveManager

            self.proactive = ProactiveManager(
                self.kernel,
                self.app_tier,
                self.db_tier,
                self.inhibition,
                load_provider=self._active_clients,
                snapshot_source=self._snapshot,
                app_thresholds=(
                    cfg.app_loop.max_threshold,
                    cfg.app_loop.min_threshold,
                ),
                db_thresholds=(
                    cfg.db_loop.max_threshold,
                    cfg.db_loop.min_threshold,
                ),
                config=cfg.proactive_config,
            )
            # Feed the planner's projection from the same probes the
            # reactive loops read (or the passive ones when unmanaged).
            for label, probe in self._tier_probes.items():
                probe.subscribe(self.proactive.cpu_listener(label))

        # --- deployment manager (extension) -------------------------------
        # Shares the inhibition lock; its RNG stream ("deploy") feeds the
        # pushed version's per-request error draws, so a bad push is
        # reproducible from the experiment seed.
        self.deploy = None
        if cfg.deploy is not None:
            from repro.deploy.canary import DeployManager

            self.deploy = DeployManager(
                self,
                cfg.deploy,
                rng=self.streams.get("deploy"),
                inhibition=self.inhibition,
            )

        # --- the extension seam ---------------------------------------------
        # Start order, not construction order (the market is built first
        # but started last): same-instant kernel events dispatch in start
        # order, so this tuple's order is part of every output digest.
        self.extensions: tuple[SystemExtension, ...] = tuple(
            ext
            for ext in (
                self.managers,
                self.proactive,
                self.chaos,
                self.deploy,
                self.market,
            )
            if ext is not None
        )

        # --- metrics sampling ---------------------------------------------
        self._node_sampler = UtilizationSampler()
        self._involved: list[Node] = []
        self._involved_key: Optional[tuple] = None
        self._sampling_task = None
        self._horizon: Optional[float] = None  # set by start_all()

        # --- decision tracing (opt-in; None everywhere when disabled) ----
        self.tracer = None
        if cfg.trace or cfg.trace_jsonl:
            from repro.obs.tracer import Tracer

            self.tracer = Tracer(
                run_id=cfg.trace_run_id or f"run-seed{cfg.seed}",
                ring_size=cfg.trace_ring,
                sink_path=cfg.trace_jsonl,
            )
            self._wire_tracer(self.tracer)

    def _wire_tracer(self, tracer) -> None:
        """Attach the tracer to every emission point of the control loops."""
        self.app_tier.tracer = tracer
        self.db_tier.tracer = tracer
        for probe in self._passive_probes:
            probe.tracer = tracer
        for ext in self.extensions:
            ext.attach_tracer(tracer)

    # ------------------------------------------------------------------
    def _market_node(self, name: str, itype, node_market) -> Node:
        """A typed node for the market engine's pool."""
        cfg = self.config
        cal = cfg.calibration
        hs = cfg.hardware_scale
        return Node(
            self.kernel,
            name,
            cpu_speed=cfg.node_speed * hs * itype.cpu_capacity,
            capacity_model=self._node_capacity,
            memory_mb=cal.node_memory_mb * hs * (itype.memory_mb / 1024.0),
            base_os_mb=cal.node_base_os_mb,
            per_job_mb=cal.per_job_mb,
            instance=itype,
            market=node_market,
        )

    def _register_mgmt(self, node: Node) -> None:
        # Management components on every node, bought ones included.
        node.register_footprint(
            "jade:mgmt", self.config.calibration.jade_mgmt_footprint_mb
        )

    def _active_clients(self) -> int:
        return self.emulator.active_clients

    def _snapshot(self):
        from repro.capacity.snapshot import SystemSnapshot

        return SystemSnapshot.capture(self)

    def _tier_manager(self, spec_name: str, tier_name: str) -> TierManager:
        """The resize actuator of one managed spec, adopting its deployed
        replica.  The one binding whose server is the spec names the
        tier's balancer and both interfaces; the spec's own client
        bindings are the template every new replica is bound through.  A
        C-JDBC balancer makes a new replica wait for its backend to be
        enabled."""
        description = self.app.description
        spec = description.spec(spec_name)
        (front,) = [b for b in description.bindings if b.server_component == spec_name]
        balancer = self.app.instance(front.client_component)
        cjdbc = balancer is self.cjdbc
        tier = TierManager(
            self.kernel,
            tier_name,
            composite=self.app.root,
            balancer=balancer,
            balancer_itf=front.client_interface,
            replica_itf=front.server_interface,
            factory=partial(self.deployer.registry.create, spec.ctype),
            cluster=self.cluster,
            installer=self.installer,
            package=spec.package,
            bindings_template=[
                (b.client_interface, server.get_interface(b.server_interface))
                for b in description.bindings
                if b.client_component == spec_name
                for server in self.app.instances(b.server_component)
            ],
            factory_context={
                "kernel": self.kernel,
                "directory": self.directory,
                "lan": self.lan,
            },
            collector=self.collector,
            ready_check=self._db_ready if cjdbc else None,
            ready_version=self._db_ready_version if cjdbc else None,
            arbitration=self.arbitration,
            name_prefix=spec_name,
        )
        (replica,) = self.app.instances(spec_name)
        (instance,) = balancer.binding_controller.bound_instances(front.client_interface)
        tier.adopt(replica, self.app.node_of(replica), instance)
        return tier

    def _db_ready(self, record) -> bool:
        """A new database replica is ready once C-JDBC enables it."""
        try:
            handle = self.cjdbc.content.controller.backend(record.binding_instance)
        except KeyError:
            return True  # detached (crashed) — do not wait forever
        return handle.state is BackendState.ENABLED

    def _db_ready_version(self) -> tuple:
        """Changes whenever :meth:`_db_ready` may answer differently: it
        reads only the controller's backend table and states."""
        controller = self.cjdbc.content.controller
        return controller, controller.states_version

    def _record_tier_cpu(self, tier_name: str, reading) -> None:
        self.collector.record_tier_cpu(
            tier_name, reading.t, reading.smoothed, reading.raw
        )

    def involved_nodes(self) -> list[Node]:
        """Nodes participating in the experiment right now: the balancers'
        nodes plus every tier replica's node."""
        nodes = [
            self.app.node_of(self.app_tier.balancer),
            self.app.node_of(self.db_tier.balancer),
        ]
        nodes.extend(self.app_tier.nodes())
        nodes.extend(self.db_tier.nodes())
        return nodes

    def _sample_nodes(self) -> None:
        # The involved nodes change only with tier membership (the
        # balancers' nodes are fixed), so the list is kept per version.
        key = (self.app_tier.members_version, self.db_tier.members_version)
        if key != self._involved_key:
            self._involved = self.involved_nodes()
            self._involved_key = key
        nodes = [n for n in self._involved if n.up]
        if not nodes:
            return
        # Two left-to-right sums in one pass: a sample moves only the
        # node's busy-time accounting, which memory does not read.
        sample = self._node_sampler.sample
        cpu = mem = 0.0
        for n in nodes:
            cpu += sample(n)
            mem += n.memory_utilization()
        count = len(nodes)
        self.collector.record_node_sample(self.kernel._now, cpu / count, mem / count)

    # ------------------------------------------------------------------
    # Lifecycle: run() == start_all() + advance(horizon) + finish().
    #
    # The split is the kernel/system boundary the federation layer builds
    # on: a region coordinator interleaves many systems by calling
    # ``advance`` epoch by epoch (applying cross-region messages at each
    # barrier) and ``finish`` once, while every single-cluster caller
    # keeps using ``run`` unchanged.
    # ------------------------------------------------------------------
    def start_all(self, duration_s: Optional[float] = None) -> float:
        """Start every manager, probe, and the client emulator.

        Returns the workload horizon (seconds of simulated time the
        emulator drives load for); the caller advances the kernel to it —
        in one ``advance`` call or many — then calls :meth:`finish`.
        """
        cfg = self.config
        self._horizon = (
            duration_s if duration_s is not None else cfg.profile.duration_s
        )
        for ext in self.extensions:
            ext.start()
        if cfg.sample_nodes:
            self._sampling_task = self.kernel.every(1.0, self._sample_nodes)
        for probe in self._passive_probes:
            probe.on_start()
        self.emulator.start()
        return self._horizon

    def advance(self, until: float) -> float:
        """Drain the kernel up to simulated time ``until`` (idempotent:
        advancing to a time already passed is a no-op).  Returns the
        kernel clock."""
        self.kernel.run(until=until)
        return self.kernel.now

    def finish(self) -> MetricsCollector:
        """Stop the emulator, drain the tail, stop every manager, and
        flush the tracer.  Requires :meth:`start_all`; returns the
        collector."""
        if self._horizon is None:
            raise RuntimeError("finish() before start_all()")
        self.kernel.run(until=self._horizon)
        self.emulator.stop()
        self.kernel.run(until=self._horizon + self.config.tail_s)
        self._horizon = None
        if self._sampling_task is not None:
            self._sampling_task.cancel()
            self._sampling_task = None
        for ext in self.extensions:
            ext.stop()
        if self.tracer is not None:
            from repro.obs.events import KernelStats

            self.tracer.emit(
                KernelStats(
                    self.kernel.now,
                    events_processed=self.kernel.events_processed,
                    tombstones_skipped=self.kernel.tombstones_skipped,
                    pending=self.kernel.pending,
                )
            )
            self.tracer.flush()
        return self.collector

    def run(self, duration_s: Optional[float] = None) -> MetricsCollector:
        """Run the experiment end to end and return the collector."""
        horizon = self.start_all(duration_s)
        self.advance(horizon)
        return self.finish()

    def distill(self) -> dict[str, object]:
        """Plain-data stats of every extension (and the workload engine)
        that has any, keyed by name in start order."""
        stats = {}
        for part in (*self.extensions, self.emulator):
            distilled = part.distill()
            if distilled is not None:
                stats[part.name] = distilled
        return stats

    def summary(self) -> dict[str, float]:
        """The benchmark tables' run summary (see
        :meth:`MetricsCollector.summary`)."""
        return self.collector.summary(self.config.profile.duration_s)
