"""Control-loop assembly.

"Each autonomic manager in Jade is based on a control loop that includes
sensor, actuator and analysis/decision components ... Sensors, Actuators
and Reactors are implemented as Fractal components, which allows reusing
and combining them to assemble specific autonomic managers.  Moreover,
this allows autonomic managers to be deployed and managed using the same
Jade framework (Jade administrates itself)." (§3.4)

:func:`make_cpu_sensor`, :func:`make_policy_reactor` and
:func:`make_resize_actuator` are the factories of the ``cpu-sensor``,
``policy-reactor`` and ``resize-actuator`` ADL types: a manager is an ADL
document (one composite per loop, bound sensor → reactor → actuator)
deployed by the ordinary :class:`~repro.jade.deployment.DeploymentService`
(§3.3: "the autonomic administration software is also described using this
ADL and deployed in the same way").  :func:`wire_loops` then does what the
ADL cannot express, so the manager can be introspected, stopped and
restarted through the exact same uniform interface as the managed J2EE
servers.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.fractal.adl import ComponentFactoryRegistry
from repro.fractal.component import Component
from repro.fractal.interfaces import CLIENT, MANDATORY, SERVER, InterfaceType
from repro.fractal.introspection import iter_components
from repro.jade.actuators import TierManager
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuProbe, CpuReading
from repro.policy.api import PolicyConfig
from repro.simulation.kernel import SimKernel


class InhibitionLock:
    """Global reconfiguration inhibition (§5.2): once a reconfiguration is
    triggered by *any* loop, every loop is inhibited for ``duration_s``."""

    def __init__(self, kernel: SimKernel, duration_s: float = 60.0) -> None:
        if duration_s < 0:
            raise ValueError("duration must be >= 0")
        self.kernel = kernel
        self.duration_s = duration_s
        self._until = -1.0
        self.acquisitions = 0
        self.rejections = 0
        #: optional decision tracer (set by the assembled system)
        self.tracer = None

    def try_acquire(self, who: str = "") -> bool:
        """Acquire if free; holds for ``duration_s`` from now.  ``who``
        names the acquiring loop in the decision trace."""
        now = self.kernel.now
        if now < self._until:
            self.rejections += 1
            if self.tracer is not None:
                from repro.obs.events import InhibitionRejected

                self.tracer.emit(
                    InhibitionRejected(now, by=who, free_at=self._until)
                )
            return False
        self._until = now + self.duration_s
        self.acquisitions += 1
        if self.tracer is not None:
            from repro.obs.events import InhibitionAcquired

            self.tracer.emit(InhibitionAcquired(now, by=who, until=self._until))
        return True

    @property
    def held(self) -> bool:
        return self.kernel.now < self._until

    @property
    def free_at(self) -> float:
        return self._until


class _SensorShell:
    """Content of a sensor component: forwards probe readings through the
    component's ``notify`` client interface.

    The interface object and the life-cycle controller are held from
    :meth:`attached` (a component's interfaces and membrane never change);
    the interface reads its binding's target on every call, so a rebind
    takes effect at the next reading."""

    def __init__(self, probe: CpuProbe) -> None:
        self.probe = probe
        self.component: Optional[Component] = None
        self._notify = None
        self._lifecycle = None
        probe.subscribe(self._push)

    def attached(self, component: Component) -> None:
        self.component = component
        self._notify = component.get_interface("notify")
        self._lifecycle = component.lifecycle_controller

    def on_start(self, component: Component) -> None:
        self.probe.on_start()

    def on_stop(self, component: Component) -> None:
        self.probe.on_stop()

    def _push(self, reading: CpuReading) -> None:
        assert self.component is not None
        if not self._lifecycle.is_started():
            return
        self._notify.invoke("on_reading", reading)


class _ReactorShell:
    """Content of a reactor component: receives readings on its ``readings``
    server interface and delegates decisions to the policy reactor, which
    actuates *through* the component's ``actuate`` binding."""

    def __init__(self, reactor: PolicyReactor) -> None:
        self.reactor = reactor

    def attached(self, component: Component) -> None:
        self.reactor.tier = _TierThroughInterface(component)

    def on_reading(self, reading: CpuReading) -> None:
        self.reactor.on_reading(reading)


class _ActuatorShell:
    """Content of an actuator component exposing the generic resize
    operations of the tier manager."""

    def __init__(self, tier: TierManager) -> None:
        self.tier = tier

    def grow(self) -> bool:
        return self.tier.grow()

    def shrink(self) -> bool:
        return self.tier.shrink()

    def replica_count(self) -> int:
        return self.tier.replica_count


class _TierThroughInterface:
    """Adapter making the reactor actuate *through* the Fractal ``actuate``
    binding rather than by direct reference — the management operations
    really traverse the component architecture (and are therefore
    observable/rebindable like any other binding).  The ``actuate``
    interface object is held; it reads its binding's target on every
    call, so a rebind takes effect at the next actuation."""

    def __init__(self, reactor_component: Component) -> None:
        self._actuate = reactor_component.get_interface("actuate")

    def grow(self) -> bool:
        return self._actuate.invoke("grow")

    def shrink(self) -> bool:
        return self._actuate.invoke("shrink")

    @property
    def replica_count(self) -> int:
        return self._actuate.invoke("replica_count")


# ----------------------------------------------------------------------
# The management component types
# ----------------------------------------------------------------------
def _tier(attributes: dict[str, Any], tiers: dict[str, TierManager]) -> TierManager:
    name = attributes.get("tier")
    if name not in tiers:
        raise ValueError(f"unknown tier {name!r}; available: {sorted(tiers)}")
    return tiers[name]


def make_cpu_sensor(
    name: str, attributes: dict[str, Any], *, kernel: SimKernel, tiers, **_: Any
) -> Component:
    """Factory for ADL type ``cpu-sensor``: a CPU probe over a tier's
    serving nodes."""
    probe = CpuProbe(
        kernel,
        nodes_provider=_tier(attributes, tiers).active_nodes,
        window_s=float(attributes["window_s"]),
        period_s=float(attributes["period_s"]),
        probe_demand_s=float(attributes["probe_demand_s"]),
        name=attributes["probe"],
    )
    return Component(
        name,
        interface_types=[
            InterfaceType("notify", "readings", role=CLIENT, contingency=MANDATORY)
        ],
        content=_SensorShell(probe),
    )


def make_policy_reactor(
    name: str,
    attributes: dict[str, Any],
    *,
    kernel: SimKernel,
    inhibition: "InhibitionLock",
    **_: Any,
) -> Component:
    """Factory for ADL type ``policy-reactor``.  ``policy`` is a
    :attr:`PolicyConfig.label`; the loop's band and the tier's service
    demand are the policy's defaults."""
    max_replicas = attributes.get("max_replicas")
    reactor = PolicyReactor(
        kernel,
        None,  # actuates through the component's binding once attached
        inhibition,
        PolicyConfig.parse(attributes["policy"]).build(
            max_threshold=float(attributes["max_threshold"]),
            min_threshold=float(attributes["min_threshold"]),
            service_demand_s=float(attributes["service_demand_s"]),
        ),
        min_replicas=int(attributes["min_replicas"]),
        max_replicas=None if max_replicas is None else int(max_replicas),
        fresh_samples_required=int(attributes["fresh_samples"]),
    )
    return Component(
        name,
        interface_types=[
            InterfaceType("readings", "readings", role=SERVER),
            InterfaceType("actuate", "resize", role=CLIENT, contingency=MANDATORY),
        ],
        content=_ReactorShell(reactor),
    )


def make_resize_actuator(
    name: str, attributes: dict[str, Any], *, tiers, **_: Any
) -> Component:
    """Factory for ADL type ``resize-actuator``: a tier's resize
    operations."""
    return Component(
        name,
        interface_types=[InterfaceType("resize", "resize", role=SERVER)],
        content=_ActuatorShell(_tier(attributes, tiers)),
    )


def register_management_types(registry: ComponentFactoryRegistry) -> None:
    """Register Jade's own component types.  They take no cluster node:
    their CPU cost is the probe demand charged on the monitored nodes,
    their memory the per-node ``jade:mgmt`` footprint."""
    registry.register("cpu-sensor", make_cpu_sensor, placed=False)
    registry.register("policy-reactor", make_policy_reactor, placed=False)
    registry.register("resize-actuator", make_resize_actuator, placed=False)


class ControlLoop:
    """One assembled feedback loop (a composite Fractal component)."""

    def __init__(
        self,
        composite: Component,
        probe: CpuProbe,
        reactor: PolicyReactor,
        tier: TierManager,
    ) -> None:
        self.composite = composite
        self.probe = probe
        self.reactor = reactor
        self.tier = tier

    def start(self) -> None:
        self.composite.start()

    def stop(self) -> None:
        self.composite.stop()

    @property
    def running(self) -> bool:
        return self.composite.lifecycle_controller.is_started()


def wire_loops(root: Component) -> list[ControlLoop]:
    """Close every loop of a deployed manager, in architecture order: what
    its ADL cannot express.  Each reactor takes the name of its loop's
    composite (it names the loop in decision traces) and the probe of the
    sensor bound to it, and its tier's reconfigurations reset that probe's
    window: samples taken against the previous replica set no longer
    describe the system.  A reactor with no sensor feeding it, or with
    ``actuate`` unbound, is a ``ValueError``."""
    components = list(iter_components(root))
    feeds: dict[Component, CpuProbe] = {}
    for component in components:
        if isinstance(component.content, _SensorShell):
            target = component.binding_controller.lookup("notify")
            if target is not None:
                feeds.setdefault(target.component, component.content.probe)
    loops = []
    for component in components:
        if not isinstance(component.content, _ReactorShell):
            continue
        actuate = component.binding_controller.lookup("actuate")
        if actuate is None:
            raise ValueError(f"{component.name}: actuate is unbound")
        probe = feeds.get(component)
        if probe is None:
            raise ValueError(f"no sensor feeds {component.name}")
        tier = actuate.delegate.tier
        reactor = component.content.reactor
        reactor.name = component.parent.name
        reactor.probe = probe
        tier.on_reconfigured.append(probe.window.reset)
        loops.append(ControlLoop(component.parent, probe, reactor, tier))
    return loops
