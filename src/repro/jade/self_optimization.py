"""The self-optimization manager (§4, §5).

Two control loops — one for the replicated application-server tier, one for
the replicated database tier — each assembled from a CPU probe (1 s period,
60 s / 90 s moving averages), a policy reactor (the ``threshold`` rule
unless ``LoopConfig.policy`` names another) and the generic tier actuator.  The loops run independently but share one
:class:`~repro.jade.control_loop.InhibitionLock` (60 s), exactly as in
§5.2.

The manager is written as an ADL document (:func:`manager_adl`) and
deployed by the same :class:`~repro.jade.deployment.DeploymentService` as
the application it manages (§3.3: "Jade administrates itself").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fractal.adl import parse_adl
from repro.jade.actuators import TierManager
from repro.jade.control_loop import ControlLoop, InhibitionLock, wire_loops
from repro.jade.deployment import DeploymentService
from repro.policy.api import PolicyConfig
from repro.workload.calibration import Calibration


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


def manager_adl(
    app_tier: str,
    db_tier: str,
    app: LoopConfig,
    db: LoopConfig,
    calibration: Calibration,
) -> str:
    """The manager's ADL document: one composite ``resize-{app,db}`` per
    loop, its sensor bound to its reactor and its reactor to its actuator.

    Each policy takes the loop context it declares: the band (threshold,
    adaptive-threshold, forecast) or the tier's calibrated service demand
    (queue-model: the app tier's servlet work, the DB tier's read/write
    blend)."""
    loops, bindings = [], []
    for label, tier, cfg, demand in (
        ("app", app_tier, app, calibration.app_demand_total()),
        ("db", db_tier, db, calibration.effective_db_demand()),
    ):
        loop = f"resize-{label}"
        parts = (
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
                # The post-reconfiguration fresh-evidence gate can never
                # exceed the number of samples the window can hold.
                fresh_samples=min(30, max(1, int(cfg.window_s / cfg.period_s))),
            ),
            _component(f"{loop}-actuator", "resize-actuator", tier=tier),
        )
        loops.append(
            f'\n  <component name="{loop}" composite="true">{"".join(parts)}'
            "\n  </component>"
        )
        bindings.append(
            f'\n  <binding client="{loop}-sensor.notify" server="{loop}-reactor.readings"/>'
            f'\n  <binding client="{loop}-reactor.actuate" server="{loop}-actuator.resize"/>'
        )
    return (
        '<definition name="self-optimization-manager">'
        f'{"".join(loops)}{"".join(bindings)}\n</definition>\n'
    )


class SelfOptimizationManager:
    """The resizing loops, deployed from the manager's ADL document."""

    name = "optimizer"

    def __init__(
        self,
        deployer: DeploymentService,
        adl: str,
        tiers: dict[str, TierManager],
        inhibition: InhibitionLock,
    ) -> None:
        #: the global lock every loop (and every other manager) shares
        self.inhibition = inhibition
        #: the deployed manager; its root composite holds one per loop
        self.app = deployer.deploy(parse_adl(adl), tiers=tiers, inhibition=inhibition)
        self.composite = self.app.root
        self.loops: dict[str, ControlLoop] = {
            loop.composite.name.removeprefix("resize-"): loop
            for loop in wire_loops(self.composite)
        }

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
