"""The self-optimization manager (§4, §5).

Two control loops — one for the replicated application-server tier, one for
the replicated database tier — each assembled from a CPU probe (1 s period,
60 s / 90 s moving averages), a threshold reactor (0.80 / 0.35 defaults)
and the generic tier actuator.  The loops run independently but share one
:class:`~repro.jade.control_loop.InhibitionLock` (60 s), exactly as in
§5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fractal.component import Component
from repro.jade.actuators import TierManager
from repro.jade.control_loop import ControlLoop, InhibitionLock
from repro.jade.reactors import (
    AdaptiveThresholdReactor,
    PolicyReactor,
    ThresholdReactor,
)
from repro.jade.sensors import CpuProbe
from repro.policy import PolicyConfig
from repro.simulation.kernel import SimKernel
from repro.workload.calibration import DEFAULT_CALIBRATION, Calibration


@dataclass
class LoopConfig:
    """Per-tier loop parameters (paper defaults)."""

    window_s: float = 60.0          # moving-average span
    period_s: float = 1.0           # probe/control period
    max_threshold: float = 0.80
    min_threshold: float = 0.35
    min_replicas: int = 1
    max_replicas: Optional[int] = None
    probe_demand_s: float = 0.0004
    adaptive: bool = False          # use the AdaptiveThresholdReactor
    planner: bool = False           # use the model-based PlannerReactor
    planner_target: float = 0.60    # its target utilization
    planner_hysteresis: float = 0.12
    #: named policy plugin with parameter overrides (``repro.policy``);
    #: None = the legacy flags above pick the reactor.  Takes precedence
    #: over ``adaptive``/``planner`` when set.
    policy: Optional[PolicyConfig] = None


# §5.2: "the average CPU usage is computed over the last 60 seconds for the
# application servers and over the last 90 seconds for the database servers".
# Thresholds were "determined experimentally through specific benchmarks"
# and are tier-specific; these values place the reconfigurations at client
# populations close to the paper's Figure 5 (see EXPERIMENTS.md).
APP_LOOP_DEFAULTS = LoopConfig(window_s=60.0, max_threshold=0.80, min_threshold=0.38)
DB_LOOP_DEFAULTS = LoopConfig(window_s=90.0, max_threshold=0.75, min_threshold=0.40)


class SelfOptimizationManager:
    """Builds and owns the two resizing loops."""

    name = "optimizer"

    def __init__(
        self,
        kernel: SimKernel,
        app_tier: TierManager,
        db_tier: TierManager,
        inhibition: InhibitionLock,
        app_config: Optional[LoopConfig] = None,
        db_config: Optional[LoopConfig] = None,
        calibration: Optional[Calibration] = None,
    ) -> None:
        self.kernel = kernel
        #: the global lock every loop (and every other manager) shares
        self.inhibition = inhibition
        #: demand mix the model-based policies default their parameters
        #: from (the queue-model plugin solves its utilization target
        #: from the tier's calibrated service demand)
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.loops: dict[str, ControlLoop] = {}
        self.composite = Component("self-optimization-manager", composite=True)
        self._build_loop("app", app_tier, app_config or APP_LOOP_DEFAULTS)
        self._build_loop("db", db_tier, db_config or DB_LOOP_DEFAULTS)

    def _build_loop(self, label: str, tier: TierManager, cfg: LoopConfig) -> None:
        probe = CpuProbe(
            self.kernel,
            nodes_provider=tier.active_nodes,
            window_s=cfg.window_s,
            period_s=cfg.period_s,
            probe_demand_s=cfg.probe_demand_s,
            name=f"probe-{label}",
        )
        reactor_cls = AdaptiveThresholdReactor if cfg.adaptive else ThresholdReactor
        # The post-reconfiguration fresh-evidence gate can never exceed the
        # number of samples the window can hold.
        fresh = min(30, max(1, int(cfg.window_s / cfg.period_s)))
        if cfg.policy is not None:
            reactor = self._policy_reactor(label, tier, cfg, fresh)
        elif cfg.planner:
            from repro.jade.planner import PlannerReactor

            reactor = PlannerReactor(
                self.kernel,
                tier,
                self.inhibition,
                target_utilization=cfg.planner_target,
                hysteresis=cfg.planner_hysteresis,
                min_replicas=cfg.min_replicas,
                max_replicas=cfg.max_replicas,
                fresh_samples_required=fresh,
            )
        else:
            reactor = reactor_cls(
                self.kernel,
                tier,
                self.inhibition,
                max_threshold=cfg.max_threshold,
                min_threshold=cfg.min_threshold,
                min_replicas=cfg.min_replicas,
                max_replicas=cfg.max_replicas,
                fresh_samples_required=fresh,
            )
        loop = ControlLoop.build(self.kernel, f"resize-{label}", probe, reactor, tier)
        self.loops[label] = loop
        self.composite.content_controller.add(loop.composite)

    def _policy_reactor(
        self, label: str, tier: TierManager, cfg: LoopConfig, fresh: int
    ):
        """Build the reactor for an explicit :class:`PolicyConfig`.

        The named threshold policies keep the dedicated reactor shells
        (their thresholds default to the loop's own band); every other
        plugin rides the generic :class:`PolicyReactor`, with model
        parameters defaulted from this loop's tier and the calibration.
        """
        pc = cfg.policy
        overrides = pc.as_dict()
        common = dict(
            min_replicas=cfg.min_replicas,
            max_replicas=cfg.max_replicas,
            fresh_samples_required=fresh,
        )
        if pc.name == "threshold":
            return ThresholdReactor(
                self.kernel,
                tier,
                self.inhibition,
                max_threshold=overrides.pop("max_threshold", cfg.max_threshold),
                min_threshold=overrides.pop("min_threshold", cfg.min_threshold),
                **common,
                **overrides,
            )
        if pc.name == "adaptive-threshold":
            return AdaptiveThresholdReactor(
                self.kernel,
                tier,
                self.inhibition,
                max_threshold=overrides.pop("max_threshold", cfg.max_threshold),
                min_threshold=overrides.pop("min_threshold", cfg.min_threshold),
                **common,
                **overrides,
            )
        defaults: dict = {}
        if pc.name == "queue-model":
            # Per-tier service demand from the calibrated mix: the app
            # tier's servlet work, the DB tier's read/write blend.
            cal = self.calibration
            defaults["service_demand_s"] = (
                cal.app_demand_total() if label == "app"
                else cal.effective_db_demand()
            )
        elif pc.name == "forecast":
            defaults["max_threshold"] = cfg.max_threshold
            defaults["min_threshold"] = cfg.min_threshold
        return PolicyReactor(
            self.kernel,
            tier,
            self.inhibition,
            pc.build(**defaults),
            **common,
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.composite.start()

    def stop(self) -> None:
        self.composite.stop()

    def attach_tracer(self, tracer) -> None:
        self.inhibition.tracer = tracer
        for loop in self.loops.values():
            loop.probe.tracer = tracer
            loop.reactor.tracer = tracer

    def distill(self) -> None:
        return None

    @property
    def app_loop(self) -> ControlLoop:
        return self.loops["app"]

    @property
    def db_loop(self) -> ControlLoop:
        return self.loops["db"]
