"""End-to-end experiment harness.

:class:`ManagedSystem` assembles the full testbed of §5.2:

* a cluster (two load-balancer nodes + a pool of worker nodes, LAN);
* the RUBiS J2EE application deployed from an ADL description
  (PLB → Tomcat×1 → C-JDBC → MySQL×1 initially);
* optionally the Jade managers: self-optimization (two control loops),
  self-recovery, and arbitration;
* the RUBiS client emulator driving the configured workload profile;
* a metrics sampler reproducing Table 1's node CPU/memory accounting.

The harness is what every quantitative benchmark and example drives; a
single :class:`ExperimentConfig` pins all parameters so a run is
reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from repro.cluster.allocator import ClusterManager
from repro.cluster.installer import Package, SoftwareInstallationService
from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.fractal.adl import parse_adl
from repro.jade.actuators import TierManager
from repro.jade.arbitration import ArbitrationManager
from repro.jade.deployment import DeployedApplication, DeploymentService
from repro.jade.self_optimization import (
    DB_LOOP_DEFAULTS,
    APP_LOOP_DEFAULTS,
    LoopConfig,
    SelfOptimizationManager,
)
from repro.jade.self_recovery import SelfRecoveryManager
from repro.jade.sensors import UtilizationSampler
from repro.legacy.cjdbc import BackendState
from repro.metrics.collector import MetricsCollector
from repro.legacy.directory import Directory
from repro.obs.events import KernelStats
from repro.obs.tracer import Tracer
from repro.simulation.kernel import SimKernel
from repro.simulation.resources import ThrashingCurve
from repro.simulation.rng import RngStreams
from repro.wrappers import default_factory_registry
from repro.wrappers.mysql import make_mysql_component
from repro.wrappers.tomcat import make_tomcat_component
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.clients import ClientEmulator
from repro.workload.profiles import RampProfile, WorkloadProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.capacity.proactive import ProactiveConfig
    from repro.chaos.campaign import ChaosCampaign
    from repro.deploy.scenario import DeployScenario
    from repro.market.scenario import MarketScenario

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


@dataclass
class ExperimentConfig:
    """All knobs of one experiment run."""

    seed: int = 1
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
    #: emulate clients in batches of this size (one ClientCohort process
    #: stands for ``cohort`` identical browsers); 1 = per-client processes
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
            else (lambda n: 1.0)
        )
        self.market = None
        if cfg.market is not None:
            # Heterogeneous fleet: the market engine stocks the pool with
            # typed nodes (reserve on-demand first, then the policy mix)
            # instead of the paper's fixed uniform `pool_nodes`.
            from repro.market.engine import MarketEngine

            def make_node(name, itype, node_market):
                return Node(
                    self.kernel,
                    name,
                    cpu_speed=cfg.node_speed * hs * itype.cpu_capacity,
                    capacity_model=capacity,
                    memory_mb=cal.node_memory_mb * hs * (itype.memory_mb / 1024.0),
                    base_os_mb=cal.node_base_os_mb,
                    per_job_mb=cal.per_job_mb,
                    instance=itype,
                    market=node_market,
                )

            self.market = MarketEngine(
                self.kernel,
                cfg.market,
                self.streams,
                make_node,
                collector=self.collector,
                pool_vcpus=float(cfg.pool_nodes),
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
        for pkg in (
            Package("tomcat", "3.3.2", size_mb=18.0, setup_time_s=2.0, footprint_mb=24.0),
            Package("mysql", "4.0.17", size_mb=35.0, setup_time_s=3.0, footprint_mb=30.0),
            Package("cjdbc", "2.0.2", size_mb=8.0, setup_time_s=1.5, footprint_mb=12.0),
            Package("plb", "0.3", size_mb=1.0, setup_time_s=0.5, footprint_mb=4.0),
            Package("apache", "1.3", size_mb=6.0, setup_time_s=1.0, footprint_mb=10.0),
        ):
            self.installer.register(pkg)

        # --- deploy the application -------------------------------------
        registry = default_factory_registry()
        self.deployer = DeploymentService(
            self.kernel, registry, self.cluster, self.directory, self.installer, self.lan
        )
        self.app: DeployedApplication = self.deployer.deploy(parse_adl(RUBIS_ADL))
        self.plb = self.app.instance("plb")
        self.cjdbc = self.app.instance("cjdbc")
        self._initial_tomcat = self.app.instance("tomcat")
        self._initial_mysql = self.app.instance("mysql")
        self.app.start()

        # --- tier managers (actuators) ----------------------------------
        self.arbitration = (
            ArbitrationManager(self.kernel) if cfg.arbitration else None
        )
        factory_context = {
            "kernel": self.kernel,
            "directory": self.directory,
            "lan": self.lan,
        }
        self.app_tier = TierManager(
            self.kernel,
            "application",
            composite=self.app.root,
            balancer=self.plb,
            balancer_itf="workers",
            replica_itf="http",
            factory=make_tomcat_component,
            cluster=self.cluster,
            installer=self.installer,
            package="tomcat",
            bindings_template=[("jdbc", self.cjdbc.get_interface("jdbc"))],
            factory_context=factory_context,
            collector=self.collector,
            arbitration=self.arbitration,
            name_prefix="tomcat",
        )
        controller = self.cjdbc.content.controller

        def _db_ready(record) -> bool:
            try:
                handle = controller.backend(record.binding_instance)
            except KeyError:
                return True  # detached (crashed) — do not wait forever
            return handle.state is BackendState.ENABLED

        self.db_tier = TierManager(
            self.kernel,
            "database",
            composite=self.app.root,
            balancer=self.cjdbc,
            balancer_itf="backends",
            replica_itf="mysql",
            factory=make_mysql_component,
            cluster=self.cluster,
            installer=self.installer,
            package="mysql",
            factory_context=factory_context,
            collector=self.collector,
            ready_check=_db_ready,
            arbitration=self.arbitration,
            name_prefix="mysql",
        )
        # Adopt the initially deployed replicas.
        self.app_tier.adopt(
            self._initial_tomcat,
            self.app.node_of(self._initial_tomcat),
            self.plb.binding_controller.bound_instances("workers")[0],
        )
        self.db_tier.adopt(
            self._initial_mysql,
            self.app.node_of(self._initial_mysql),
            self.cjdbc.binding_controller.bound_instances("backends")[0],
        )
        # Replica naming continues after the initial instances.
        self.app_tier._next_id = 2
        self.db_tier._next_id = 2

        # --- Jade managers ----------------------------------------------
        self.optimizer = None
        self.recovery: Optional[SelfRecoveryManager] = None
        if cfg.managed:
            if cfg.use_slo_manager:
                from repro.jade.latency_optimization import (
                    LatencyOptimizationManager,
                )

                self.optimizer = LatencyOptimizationManager(
                    self.kernel,
                    [self.app_tier, self.db_tier],
                    self.collector,
                    max_latency_s=cfg.slo_max_latency_s,
                    min_latency_s=cfg.slo_min_latency_s,
                    inhibition_s=cfg.inhibition_s,
                )
            else:
                self.optimizer = SelfOptimizationManager(
                    self.kernel,
                    self.app_tier,
                    self.db_tier,
                    inhibition_s=cfg.inhibition_s,
                    app_config=cfg.app_loop,
                    db_config=cfg.db_loop,
                    calibration=cal,
                )
            # Management components deployed on every node (Table 1's
            # memory overhead).
            for node in self.nodes:
                node.register_footprint("jade:mgmt", cal.jade_mgmt_footprint_mb)
            if self.market is not None:
                # ... including nodes the fleet allocator buys later.
                self.market.node_decorators.append(
                    lambda n: n.register_footprint(
                        "jade:mgmt", cal.jade_mgmt_footprint_mb
                    )
                )
        if cfg.recovery:
            self.recovery = SelfRecoveryManager(
                self.kernel,
                [self.app_tier, self.db_tier],
                collector=self.collector,
            )

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
            if cfg.chaos.detector == "phi" and self.recovery is not None:
                from repro.chaos.detectors import PhiAccrualDetector

                self.recovery.attach_detector(
                    PhiAccrualDetector(
                        self.kernel,
                        self.recovery._all_servers,
                        threshold=cfg.chaos.phi_threshold,
                        failfast_ticks=cfg.chaos.failfast_ticks,
                    )
                )

        # --- market engine late-binding -----------------------------------
        # The engine was built with the cluster (it owns the pool); now
        # that tiers and recovery exist it can drain interrupted nodes.
        if self.market is not None:
            self.market.attach(self)

        # --- tier CPU recording for Figures 6 & 7 --------------------------
        # With Jade, the real probes' readings are recorded; without Jade a
        # *passive* measurement probe (zero CPU cost — it models the
        # experimenters' external instrumentation, not a management
        # component) produces the comparison curves.
        self._passive_probes = []
        if isinstance(self.optimizer, SelfOptimizationManager):
            for label, tier_name in (("app", "application"), ("db", "database")):
                probe = self.optimizer.loops[label].probe
                probe.subscribe(self._tier_recorder(tier_name))
        else:
            from repro.jade.sensors import CpuProbe

            for tier, tier_name, window in (
                (self.app_tier, "application", cfg.app_loop.window_s),
                (self.db_tier, "database", cfg.db_loop.window_s),
            ):
                probe = CpuProbe(
                    self.kernel,
                    nodes_provider=tier.active_nodes,
                    window_s=window,
                    period_s=1.0,
                    probe_demand_s=0.0,
                    name=f"passive-{tier_name}",
                )
                probe.subscribe(self._tier_recorder(tier_name))
                self._passive_probes.append(probe)

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
            from repro.capacity.snapshot import SystemSnapshot

            lock = getattr(self.optimizer, "inhibition", None)
            if lock is None:
                from repro.jade.control_loop import InhibitionLock

                lock = InhibitionLock(self.kernel, cfg.inhibition_s)
            self.proactive = ProactiveManager(
                self.kernel,
                self.app_tier,
                self.db_tier,
                lock,
                load_provider=lambda: self.emulator.active_clients,
                snapshot_source=lambda: SystemSnapshot.capture(
                    self, inhibition=lock
                ),
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
            if isinstance(self.optimizer, SelfOptimizationManager):
                for label in ("app", "db"):
                    self.optimizer.loops[label].probe.subscribe(
                        self.proactive.cpu_listener(label)
                    )
            else:
                for label, probe in zip(("app", "db"), self._passive_probes):
                    probe.subscribe(self.proactive.cpu_listener(label))

        # --- deployment manager (extension) -------------------------------
        # Built after the proactive manager so it can share whichever
        # inhibition lock exists (optimizer's, else proactive's); with
        # neither, it creates its own.  Its RNG stream ("deploy") feeds
        # the pushed version's per-request error draws, so a bad push is
        # reproducible from the experiment seed.
        self.deploy = None
        if cfg.deploy is not None:
            from repro.deploy.canary import DeployManager

            lock = getattr(self.optimizer, "inhibition", None)
            if lock is None and self.proactive is not None:
                lock = self.proactive.inhibition
            self.deploy = DeployManager(
                self, cfg.deploy, rng=self.streams.get("deploy"), lock=lock
            )

        # --- metrics sampling ---------------------------------------------
        self._node_sampler = UtilizationSampler()
        self._sampling_task = None
        self._horizon: Optional[float] = None  # set by start_all()

        # --- decision tracing (opt-in; None everywhere when disabled) ----
        self.tracer = None
        if cfg.trace or cfg.trace_jsonl:
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
        if isinstance(self.optimizer, SelfOptimizationManager):
            self.optimizer.inhibition.tracer = tracer
            for loop in self.optimizer.loops.values():
                loop.probe.tracer = tracer
                loop.reactor.tracer = tracer
        elif self.optimizer is not None:
            # Latency-SLO manager: the lock still traces; its reactor
            # decisions surface through the tier events.
            self.optimizer.inhibition.tracer = tracer
        for probe in self._passive_probes:
            probe.tracer = tracer
        if self.recovery is not None:
            self.recovery.tracer = tracer
            if self.recovery.detector is not None:
                self.recovery.detector.tracer = tracer
        if self.chaos is not None:
            self.chaos.tracer = tracer
        if self.deploy is not None:
            self.deploy.tracer = tracer
        if self.market is not None:
            self.market.tracer = tracer
            self.market.market.tracer = tracer
        if self.proactive is not None:
            self.proactive.tracer = tracer
            self.proactive.inhibition.tracer = tracer

    # ------------------------------------------------------------------
    def entry(self, request) -> None:
        """The system's front door (what the emulated browsers hit)."""
        self.plb.content.balancer.handle(request)

    def _tier_recorder(self, tier_name: str):
        collector = self.collector

        def record(reading) -> None:
            collector.record_tier_cpu(
                tier_name, reading.t, reading.smoothed, reading.raw
            )

        return record

    def involved_nodes(self) -> list[Node]:
        """Nodes participating in the experiment right now: the balancers'
        nodes plus every tier replica's node."""
        nodes = [
            self.app.node_of(self.plb),
            self.app.node_of(self.cjdbc),
        ]
        nodes.extend(self.app_tier.nodes())
        nodes.extend(self.db_tier.nodes())
        return nodes

    def _sample_nodes(self) -> None:
        nodes = [n for n in self.involved_nodes() if n.up]
        if not nodes:
            return
        cpu = sum(self._node_sampler.sample(n) for n in nodes) / len(nodes)
        mem = sum(n.memory_utilization() for n in nodes) / len(nodes)
        self.collector.record_node_sample(self.kernel.now, cpu, mem)

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
        if self.optimizer is not None:
            self.optimizer.start()
        if self.recovery is not None:
            self.recovery.start()
        if self.proactive is not None:
            self.proactive.on_start()
        if self.chaos is not None:
            self.chaos.start()
        if self.deploy is not None:
            self.deploy.start()
        if self.market is not None:
            self.market.start()
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
        if self.optimizer is not None:
            self.optimizer.stop()
        if self.recovery is not None:
            self.recovery.stop()
        if self.proactive is not None:
            self.proactive.on_stop()
        if self.chaos is not None:
            self.chaos.stop()
        if self.deploy is not None:
            self.deploy.stop()
        if self.market is not None:
            self.market.stop()
        if self.tracer is not None:
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

    # ------------------------------------------------------------------
    # Summaries used by the benchmark tables
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, float]:
        col = self.collector
        horizon = self.config.profile.duration_s
        return {
            "completed": col.completed_requests,
            "failed": col.failed_requests,
            "throughput_rps": col.throughput(0.0, horizon),
            "latency_mean_ms": col.latency_summary()["mean"] * 1e3,
            "latency_p95_ms": col.latency_summary()["p95"] * 1e3,
            "app_replicas_max": (
                col.tier_replicas["application"].max()
                if "application" in col.tier_replicas
                else 1
            ),
            "db_replicas_max": (
                col.tier_replicas["database"].max()
                if "database" in col.tier_replicas
                else 1
            ),
            "node_cpu_mean": col.node_cpu.mean(),
            "node_mem_mean": col.node_memory.mean(),
        }
