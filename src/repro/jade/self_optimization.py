"""The self-optimization manager (§4, §5).

Two control loops — one for the replicated application-server tier, one for
the replicated database tier — each assembled from a CPU probe (1 s period,
60 s / 90 s moving averages), a policy reactor (the ``threshold`` rule
unless ``LoopConfig.policy`` names another) and the generic tier actuator.  The loops run independently but share one
:class:`~repro.jade.control_loop.InhibitionLock` (60 s), exactly as in
§5.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fractal.component import Component
from repro.jade.actuators import TierManager
from repro.jade.control_loop import ControlLoop, InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuProbe
from repro.policy.api import PolicyConfig
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
    #: named policy plugin with parameter overrides (``repro.policy``);
    #: None = the paper's ``threshold`` rule on the band above
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
        # Each policy takes the loop context it declares: the band above
        # (threshold, adaptive-threshold, forecast) or the tier's
        # calibrated service demand (queue-model: the app tier's servlet
        # work, the DB tier's read/write blend).
        cal = self.calibration
        policy = (cfg.policy or PolicyConfig("threshold")).build(
            max_threshold=cfg.max_threshold,
            min_threshold=cfg.min_threshold,
            service_demand_s=(
                cal.app_demand_total() if label == "app"
                else cal.effective_db_demand()
            ),
        )
        reactor = PolicyReactor(
            self.kernel,
            tier,
            self.inhibition,
            policy,
            min_replicas=cfg.min_replicas,
            max_replicas=cfg.max_replicas,
            # The post-reconfiguration fresh-evidence gate can never exceed
            # the number of samples the window can hold.
            fresh_samples_required=min(30, max(1, int(cfg.window_s / cfg.period_s))),
        )
        loop = ControlLoop.build(self.kernel, f"resize-{label}", probe, reactor, tier)
        self.loops[label] = loop
        self.composite.content_controller.add(loop.composite)

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
