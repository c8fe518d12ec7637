"""Jade's managers as one ADL document, deployed like the application
(§3.3: "Jade administrates itself").

:func:`manager_adl` writes a run's document: the self-optimization manager
of §4 and §5 — one loop per replicated tier (application servers, then
databases), each a CPU probe (1 s period, 60 s / 90 s moving averages), a
policy reactor (the ``threshold`` rule unless ``LoopConfig.policy`` names
another) and the tier actuator — or the latency-SLO loop in its place,
then the self-recovery manager of Fig. 3.  The loops share one
:class:`~repro.jade.control_loop.InhibitionLock` (60 s), as in §5.2.
:class:`ManagerDeployment` deploys the document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.fractal.adl import parse_adl
from repro.jade.actuators import TierManager
from repro.jade.control_loop import ControlLoop, InhibitionLock, wire_loops
from repro.jade.deployment import DeploymentService
from repro.jade.self_recovery import RepairReactor
from repro.jade.sensors import CpuProbe
from repro.metrics.collector import MetricsCollector
from repro.policy.api import PolicyConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.jade.system import ExperimentConfig


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


def _component(name: str, ctype: str, **attributes: object) -> str:
    # A float formats as its repr, which parses back to the same double.
    lines = "".join(
        f'\n      <attribute name="{key}" value="{value}"/>'
        for key, value in attributes.items()
        if value is not None
    )
    return f'\n    <component name="{name}" type="{ctype}">{lines}\n    </component>'


def _composite(name: str, *parts: str) -> str:
    return f'\n  <component name="{name}" composite="true">{"".join(parts)}\n  </component>'


def manager_adl(
    config: "ExperimentConfig", app_tier: str, db_tier: str
) -> Optional[str]:
    """The managers' ADL document of a run (None when it has none).  In
    start order: with ``managed``, one composite ``resize-{app,db}`` per
    CPU loop, or the ``slo`` loop with ``use_slo_manager``; then, with
    ``recovery``, the ``recovery`` composite.  A loop's sensor is bound to
    its reactor and its reactor to its actuator.

    Each CPU policy takes the loop context it declares: the band
    (threshold, adaptive-threshold, forecast) or the tier's calibrated
    service demand (queue-model: the app tier's servlet work, the DB
    tier's read/write blend).  The SLO loop runs the ``latency-band``
    policy with a floor of one replica per tier (a shrink is held back
    once every tier is down to one) over a bottleneck actuator.
    Self-recovery watches both tiers with a heartbeat sensor, plus the
    phi-accrual detector where the chaos campaign asks for it."""
    tiers = f"{app_tier} {db_tier}"
    composites: list[str] = []
    bindings: list[tuple[str, str]] = []

    def add_loop(name: str, sensor: str, reactor: str, actuator: str) -> None:
        composites.append(_composite(name, sensor, reactor, actuator))
        bindings.append((f"{name}-sensor.notify", f"{name}-reactor.readings"))
        bindings.append((f"{name}-reactor.actuate", f"{name}-actuator.resize"))

    if config.managed and config.use_slo_manager:
        band = (
            ("max_latency_s", config.slo_max_latency_s),
            ("min_latency_s", config.slo_min_latency_s),
        )
        add_loop(
            "slo",
            _component("slo-sensor", "latency-sensor"),
            _component(
                "slo-reactor",
                "policy-reactor",
                policy=PolicyConfig("latency-band", band).label,
                min_replicas=2,
                fresh_samples=30,  # the gate of the sensor's 60 s window
            ),
            _component("slo-actuator", "bottleneck-actuator", tiers=tiers),
        )
    elif config.managed:
        calibration = config.calibration
        for label, tier, cfg, demand in (
            ("app", app_tier, config.app_loop, calibration.app_demand_total()),
            ("db", db_tier, config.db_loop, calibration.effective_db_demand()),
        ):
            loop = f"resize-{label}"
            add_loop(
                loop,
                _component(
                    f"{loop}-sensor",
                    "cpu-sensor",
                    tier=tier,
                    probe=f"probe-{label}",
                    window_s=cfg.window_s,
                    period_s=cfg.period_s,
                    probe_demand_s=cfg.probe_demand_s,
                ),
                _component(
                    f"{loop}-reactor",
                    "policy-reactor",
                    policy=(cfg.policy or PolicyConfig()).label,
                    max_threshold=cfg.max_threshold,
                    min_threshold=cfg.min_threshold,
                    service_demand_s=demand,
                    min_replicas=cfg.min_replicas,
                    max_replicas=cfg.max_replicas,
                    # The post-reconfiguration fresh-evidence gate can
                    # never exceed the number of samples the window can hold.
                    fresh_samples=min(30, max(1, int(cfg.window_s / cfg.period_s))),
                ),
                _component(f"{loop}-actuator", "resize-actuator", tier=tier),
            )
    if config.recovery:
        parts = [_component("recovery-sensor", "heartbeat-sensor", tiers=tiers)]
        bindings.append(("recovery-sensor.notify", "recovery-reactor.failures"))
        chaos = config.chaos
        if chaos is not None and chaos.detector == "phi":
            parts.append(
                _component(
                    "recovery-detector",
                    "phi-detector",
                    tiers=tiers,
                    threshold=chaos.phi_threshold,
                    failfast_ticks=chaos.failfast_ticks,
                )
            )
            bindings.append(("recovery-detector.notify", "recovery-reactor.suspicions"))
        parts.append(_component("recovery-reactor", "repair-reactor", tiers=tiers))
        composites.append(_composite("recovery", *parts))
    if not composites:
        return None
    links = "".join(f'\n  <binding client="{c}" server="{s}"/>' for c, s in bindings)
    return f'<definition name="jade-managers">{"".join(composites)}{links}\n</definition>\n'


class ManagerDeployment:
    """The managers of a run, deployed from their ADL document: one
    extension, started, stopped and traced as a whole."""

    name = "managers"

    def __init__(
        self,
        deployer: DeploymentService,
        adl: str,
        tiers: Sequence[TierManager],
        inhibition: InhibitionLock,
        collector: Optional[MetricsCollector] = None,
    ) -> None:
        #: the global lock every loop (and every other manager) shares
        self.inhibition = inhibition
        #: the deployed managers; their root composite holds one per loop
        self.app = deployer.deploy(
            parse_adl(adl),
            tiers={t.tier_name: t for t in tiers},
            inhibition=inhibition,
            collector=collector,
        )
        self.composite = self.app.root
        self.loops: dict[str, ControlLoop] = {
            loop.composite.name.removeprefix("resize-"): loop
            for loop in wire_loops(self.composite)
        }
        #: the self-recovery manager's reactor (None without one)
        self.recovery: Optional[RepairReactor] = next(
            (c.content for c in self.app.instances("recovery-reactor")), None
        )

    def start(self) -> None:
        self.composite.start()

    def stop(self) -> None:
        self.composite.stop()

    def attach_tracer(self, tracer) -> None:
        self.inhibition.tracer = tracer
        for loop in self.loops.values():
            loop.reactor.tracer = tracer
            if isinstance(loop.probe, CpuProbe):  # latency readings are untraced
                loop.probe.tracer = tracer
        if self.recovery is not None:
            self.recovery.tracer = tracer
            if self.recovery.detector is not None:
                self.recovery.detector.tracer = tracer

    def distill(self) -> None:
        return None
