"""Deploying the administration software itself from ADL (§3.3).

"The autonomic administration software is also described using this ADL
and deployed in the same way.  However, this description of the
administration software is separated from that of the application."

This module registers factories for the management component types —
``cpu-sensor``, ``threshold-reactor``, ``resize-actuator`` — so a manager
like the self-optimization loops can be written as an ADL document and
interpreted by the ordinary :class:`~repro.jade.deployment.DeploymentService`
(Jade administrates itself).  The factories need more context than the
legacy wrappers (the tier managers to actuate, the shared inhibition
lock); the deployment service provides it through ``extra_context``.

Example document (see :data:`SELF_OPTIMIZATION_ADL`)::

    <definition name="self-optimization">
      <component name="db-sensor" type="cpu-sensor">
    <virtual-node name="jade"/>
        <attribute name="tier" value="database"/>
        <attribute name="window_s" value="90"/>
      </component>
      <component name="db-reactor" type="threshold-reactor">
    <virtual-node name="jade"/> ... </component>
      <component name="db-actuator" type="resize-actuator">
    <virtual-node name="jade"/> ... </component>
      <binding client="db-sensor.notify" server="db-reactor.readings"/>
      <binding client="db-reactor.actuate" server="db-actuator.resize"/>
    </definition>
"""

from __future__ import annotations

from typing import Any

from repro.fractal.adl import ComponentFactoryRegistry
from repro.fractal.component import Component
from repro.fractal.interfaces import CLIENT, MANDATORY, SERVER, InterfaceType
from repro.jade.actuators import TierManager
from repro.jade.control_loop import (
    ActuatorShell,
    InhibitionLock,
    ReactorShell,
    SensorShell,
    TierThroughInterface,
)
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuProbe
from repro.policy.threshold import AdaptiveThresholdPolicy, ThresholdPolicy

#: the paper's self-optimization manager, as an ADL document
SELF_OPTIMIZATION_ADL = """
<definition name="self-optimization-manager">
  <component name="app-sensor" type="cpu-sensor">
    <virtual-node name="jade"/>
    <attribute name="tier" value="application"/>
    <attribute name="window_s" value="60"/>
  </component>
  <component name="app-reactor" type="threshold-reactor">
    <virtual-node name="jade"/>
    <attribute name="tier" value="application"/>
    <attribute name="max_threshold" value="0.80"/>
    <attribute name="min_threshold" value="0.38"/>
  </component>
  <component name="app-actuator" type="resize-actuator">
    <virtual-node name="jade"/>
    <attribute name="tier" value="application"/>
  </component>
  <component name="db-sensor" type="cpu-sensor">
    <virtual-node name="jade"/>
    <attribute name="tier" value="database"/>
    <attribute name="window_s" value="90"/>
  </component>
  <component name="db-reactor" type="threshold-reactor">
    <virtual-node name="jade"/>
    <attribute name="tier" value="database"/>
    <attribute name="max_threshold" value="0.75"/>
    <attribute name="min_threshold" value="0.40"/>
  </component>
  <component name="db-actuator" type="resize-actuator">
    <virtual-node name="jade"/>
    <attribute name="tier" value="database"/>
  </component>
  <binding client="app-sensor.notify" server="app-reactor.readings"/>
  <binding client="app-reactor.actuate" server="app-actuator.resize"/>
  <binding client="db-sensor.notify" server="db-reactor.readings"/>
  <binding client="db-reactor.actuate" server="db-actuator.resize"/>
</definition>
"""


def _tier_from(attributes: dict[str, Any], tiers: dict[str, TierManager]) -> TierManager:
    name = attributes.get("tier")
    if name not in tiers:
        raise ValueError(
            f"unknown tier {name!r}; available: {sorted(tiers)}"
        )
    return tiers[name]


def make_cpu_sensor(
    name: str,
    attributes: dict[str, Any],
    *,
    kernel,
    tiers: dict[str, TierManager],
    calibration=None,
    **_: Any,
) -> Component:
    """Factory for ADL type ``cpu-sensor``."""
    tier = _tier_from(attributes, tiers)
    probe = CpuProbe(
        kernel,
        nodes_provider=tier.active_nodes,
        window_s=float(attributes.get("window_s", 60.0)),
        period_s=float(attributes.get("period_s", 1.0)),
        probe_demand_s=(
            calibration.probe_demand_s if calibration is not None else 0.0004
        ),
        name=name,
    )
    return Component(
        name,
        interface_types=[
            InterfaceType("notify", "readings", role=CLIENT, contingency=MANDATORY)
        ],
        content=SensorShell(probe),
    )


def make_threshold_reactor(
    name: str,
    attributes: dict[str, Any],
    *,
    kernel,
    tiers: dict[str, TierManager],
    inhibition: InhibitionLock,
    **_: Any,
) -> Component:
    """Factory for ADL type ``threshold-reactor`` (set ``adaptive=true``
    for the self-adjusting variant)."""
    tier = _tier_from(attributes, tiers)
    adaptive = str(attributes.get("adaptive", "false")).lower() in ("true", "1")
    cls = AdaptiveThresholdPolicy if adaptive else ThresholdPolicy
    window = float(attributes.get("window_s", 60.0))
    reactor = PolicyReactor(
        kernel,
        tier,
        inhibition,
        cls(
            max_threshold=float(attributes.get("max_threshold", 0.80)),
            min_threshold=float(attributes.get("min_threshold", 0.35)),
        ),
        min_replicas=int(attributes.get("min_replicas", 1)),
        fresh_samples_required=min(30, max(1, int(window))),
    )
    return Component(
        name,
        interface_types=[
            InterfaceType("readings", "readings", role=SERVER),
            InterfaceType("actuate", "resize", role=CLIENT, contingency=MANDATORY),
        ],
        content=ReactorShell(reactor),
    )


def make_resize_actuator(
    name: str,
    attributes: dict[str, Any],
    *,
    tiers: dict[str, TierManager],
    **_: Any,
) -> Component:
    """Factory for ADL type ``resize-actuator``."""
    tier = _tier_from(attributes, tiers)
    return Component(
        name,
        interface_types=[InterfaceType("resize", "resize", role=SERVER)],
        content=ActuatorShell(tier),
    )


def management_factory_registry() -> ComponentFactoryRegistry:
    """Registry for the administration software's component types."""
    registry = ComponentFactoryRegistry()
    registry.register("cpu-sensor", make_cpu_sensor)
    registry.register("threshold-reactor", make_threshold_reactor)
    registry.register("resize-actuator", make_resize_actuator)
    return registry


def finalize_manager(app) -> None:
    """Post-deployment wiring the ADL cannot express: route each reactor's
    decisions through its ``actuate`` binding and register the probe reset
    on reconfiguration (same as :meth:`ControlLoop.build`)."""
    from repro.fractal.introspection import iter_components

    for component in iter_components(app.root):
        content = component.content
        if isinstance(content, ReactorShell):
            reactor = content.reactor
            reactor.tier_manager = reactor.tier  # keep the raw handle
            actuate = component.binding_controller.lookup("actuate")
            if actuate is None:
                raise ValueError(f"{component.name}: actuate is unbound")
            shell = actuate.delegate
            assert isinstance(shell, ActuatorShell)
            reactor.probe = _find_probe_for(app, component)
            shell.tier.on_reconfigured.append(reactor.probe.window.reset)
            reactor.tier = TierThroughInterface(component)


def _find_probe_for(app, reactor_component) -> CpuProbe:
    """The probe of the sensor bound to this reactor."""
    from repro.fractal.introspection import iter_components

    for component in iter_components(app.root):
        content = component.content
        if isinstance(content, SensorShell):
            target = component.binding_controller.lookup("notify")
            if target is not None and target.component is reactor_component:
                return content.probe
    raise ValueError(f"no sensor feeds {reactor_component.name}")
