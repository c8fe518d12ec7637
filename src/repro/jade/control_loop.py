"""Control-loop assembly.

"Each autonomic manager in Jade is based on a control loop that includes
sensor, actuator and analysis/decision components ... Sensors, Actuators
and Reactors are implemented as Fractal components, which allows reusing
and combining them to assemble specific autonomic managers.  Moreover,
this allows autonomic managers to be deployed and managed using the same
Jade framework (Jade administrates itself)." (§3.4)

The ``make_*`` functions are the factories of Jade's own ADL types
(:func:`register_management_types`).  A manager is an ADL document (one
composite per loop, bound sensor → reactor → actuator) deployed by the
ordinary :class:`~repro.jade.deployment.DeploymentService` (§3.3: "the
autonomic administration software is also described using this ADL and
deployed in the same way").  :func:`wire_loops` then does what the ADL
cannot express, so the manager can be introspected, stopped and restarted
through the exact same uniform interface as the managed J2EE servers.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.fractal.adl import ComponentFactoryRegistry
from repro.fractal.component import Component
from repro.fractal.interfaces import CLIENT, MANDATORY, SERVER, InterfaceType
from repro.fractal.introspection import iter_components
from repro.jade.actuators import BottleneckActuator, TierManager
from repro.jade.reactors import PolicyReactor
from repro.jade.self_recovery import RepairReactor, all_servers, member_servers
from repro.jade.sensors import CpuProbe, HeartbeatSensor, LatencySensor
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
    """Content of a sensor component: forwards what its probe reports
    (a reading, a failure, a suspicion) as ``operation`` through the
    component's ``notify`` client interface.

    The interface object and the life-cycle controller are held from
    :meth:`attached` (a component's interfaces and membrane never change);
    each report calls the interface's resolution of ``operation``, which
    the interface keeps until its binding changes, so a rebind takes
    effect at the next report."""

    def __init__(self, probe, operation: str = "on_reading") -> None:
        self.probe = probe
        self.operation = operation
        self._notify = None
        self._lifecycle = None
        probe.subscribe(self._push)

    def attached(self, component: Component) -> None:
        self._notify = component.get_interface("notify")
        self._lifecycle = component.lifecycle_controller

    def on_start(self, component: Component) -> None:
        self.probe.on_start()

    def on_stop(self, component: Component) -> None:
        self.probe.on_stop()

    def _push(self, *report) -> None:
        if not self._lifecycle.is_started():
            return
        self._notify.resolve(self.operation)(*report)


class _ReactorShell:
    """Content of a reactor component: its ``readings`` server interface
    lands on the policy reactor's own ``on_reading`` (no shell frame sits
    between sensor and reactor).  The shell is the reactor's tier: the
    reactor actuates *through* the component's ``actuate`` binding rather
    than by direct reference, so the management operations really
    traverse the component architecture (and are observable/rebindable
    like any other binding).  The ``actuate`` interface object is held;
    each actuation calls its resolution of the operation, kept until the
    binding changes, so a rebind takes effect at the next actuation."""

    def __init__(self, reactor: PolicyReactor) -> None:
        self.reactor = reactor
        self.on_reading = reactor.on_reading
        self._actuate = None

    def attached(self, component: Component) -> None:
        self._actuate = component.get_interface("actuate")
        self.reactor.tier = self

    def grow(self) -> bool:
        return self._actuate.resolve("grow")()

    def shrink(self) -> bool:
        return self._actuate.resolve("shrink")()

    @property
    def replica_count(self) -> int:
        return self._actuate.resolve("replica_count")()


class _ActuatorShell:
    """Content of an actuator component exposing the generic resize
    operations of a tier manager (or a bottleneck actuator)."""

    def __init__(self, tier: TierManager | BottleneckActuator) -> None:
        self.tier = tier

    def on_start(self, component: Component) -> None:
        if isinstance(self.tier, BottleneckActuator):
            self.tier.on_start()

    def grow(self) -> bool:
        return self.tier.grow()

    def shrink(self) -> bool:
        return self.tier.shrink()

    def replica_count(self) -> int:
        return self.tier.replica_count


# ----------------------------------------------------------------------
# The management component types
# ----------------------------------------------------------------------
def _tiers(names: str, tiers: dict[str, TierManager]) -> list[TierManager]:
    """The tiers a ``tier`` or (space-separated) ``tiers`` attribute names."""
    for name in names.split():
        if name not in tiers:
            raise ValueError(f"unknown tier {name!r}; available: {sorted(tiers)}")
    return [tiers[name] for name in names.split()]


def _sensor(name: str, probe, signature: str, operation: str = "on_reading") -> Component:
    return Component(
        name,
        interface_types=[
            InterfaceType("notify", signature, role=CLIENT, contingency=MANDATORY)
        ],
        content=_SensorShell(probe, operation),
    )


def make_cpu_sensor(
    name: str, attributes: dict[str, Any], *, kernel: SimKernel, tiers, **_: Any
) -> Component:
    """Factory for ADL type ``cpu-sensor``: a CPU probe over a tier's
    serving nodes."""
    (tier,) = _tiers(attributes["tier"], tiers)
    probe = CpuProbe(
        kernel,
        nodes_provider=tier.active_nodes,
        window_s=float(attributes["window_s"]),
        period_s=float(attributes["period_s"]),
        probe_demand_s=float(attributes["probe_demand_s"]),
        name=attributes["probe"],
    )
    return _sensor(name, probe, "readings")


def make_latency_sensor(
    name: str, attributes: dict[str, Any], *, kernel: SimKernel, collector, **_: Any
) -> Component:
    """Factory for ADL type ``latency-sensor``: §4.2's response-time sensor."""
    return _sensor(name, LatencySensor(kernel, collector.latencies), "readings")


def make_heartbeat_sensor(
    name: str, attributes: dict[str, Any], *, kernel: SimKernel, tiers, **_: Any
) -> Component:
    """Factory for ADL type ``heartbeat-sensor``: pings every replica of
    the listed tiers each second and reports a failure once."""
    watched = _tiers(attributes["tiers"], tiers)
    probe = HeartbeatSensor(
        kernel,
        partial(all_servers, watched),
        members_provider=partial(member_servers, watched),
    )
    return _sensor(name, probe, "failures", "on_failure")


def make_phi_detector(
    name: str, attributes: dict[str, Any], *, kernel: SimKernel, tiers, **_: Any
) -> Component:
    """Factory for ADL type ``phi-detector``: phi-accrual over the tiers."""
    from repro.chaos.detectors import PhiAccrualDetector

    probe = PhiAccrualDetector(
        kernel,
        partial(all_servers, _tiers(attributes["tiers"], tiers)),
        threshold=float(attributes["threshold"]),
        failfast_ticks=int(attributes["failfast_ticks"]),
    )
    return _sensor(name, probe, "suspicions", "on_suspicion")


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
    demand, where given, are the policy's defaults."""
    max_replicas = attributes.get("max_replicas")
    context = {
        key: float(attributes[key])
        for key in ("max_threshold", "min_threshold", "service_demand_s")
        if key in attributes
    }
    reactor = PolicyReactor(
        kernel,
        None,  # actuates through the component's binding once attached
        inhibition,
        PolicyConfig.parse(attributes["policy"]).build(**context),
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
    (tier,) = _tiers(attributes["tier"], tiers)
    return _actuator(name, tier)


def make_bottleneck_actuator(
    name: str, attributes: dict[str, Any], *, tiers, **_: Any
) -> Component:
    """Factory for ADL type ``bottleneck-actuator``: resizes whichever of
    the listed tiers is the bottleneck."""
    return _actuator(name, BottleneckActuator(_tiers(attributes["tiers"], tiers)))


def _actuator(name: str, actuator: TierManager | BottleneckActuator) -> Component:
    return Component(
        name,
        interface_types=[InterfaceType("resize", "resize", role=SERVER)],
        content=_ActuatorShell(actuator),
    )


def make_repair_reactor(
    name: str, attributes: dict[str, Any], *, kernel: SimKernel, tiers, collector, **_: Any
) -> Component:
    """Factory for ADL type ``repair-reactor``: repairs the failed
    replicas of the listed tiers, retrying what cannot run yet."""
    return Component(
        name,
        interface_types=[
            InterfaceType(itf, itf, role=SERVER) for itf in ("failures", "suspicions")
        ],
        content=RepairReactor(kernel, _tiers(attributes["tiers"], tiers), collector),
    )


def register_management_types(registry: ComponentFactoryRegistry) -> None:
    """Register Jade's own component types.  They take no cluster node:
    their CPU cost is the probe demand charged on the monitored nodes,
    their memory the per-node ``jade:mgmt`` footprint."""
    for ctype, factory in (
        ("cpu-sensor", make_cpu_sensor),
        ("latency-sensor", make_latency_sensor),
        ("heartbeat-sensor", make_heartbeat_sensor),
        ("phi-detector", make_phi_detector),
        ("policy-reactor", make_policy_reactor),
        ("repair-reactor", make_repair_reactor),
        ("resize-actuator", make_resize_actuator),
        ("bottleneck-actuator", make_bottleneck_actuator),
    ):
        registry.register(ctype, factory, placed=False)


class ControlLoop:
    """One assembled feedback loop (a composite Fractal component)."""

    def __init__(
        self,
        composite: Component,
        probe: CpuProbe | LatencySensor,
        reactor: PolicyReactor,
        tier: TierManager | BottleneckActuator,
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
    its ADL cannot express.  Each policy reactor takes the name of its
    loop's composite (it names the loop in decision traces) and the probe
    of the sensor bound to it, and its actuator's reconfigurations reset
    that probe's window: samples taken against the previous replica set
    no longer describe the system.  A repair reactor takes the sensor and
    the detector that report to it.  A policy reactor with no sensor
    feeding it, or with ``actuate`` unbound, is a ``ValueError``."""
    components = list(iter_components(root))
    feeds: dict[tuple[Component, str], object] = {}
    for component in components:
        if isinstance(component.content, _SensorShell):
            target = component.binding_controller.lookup("notify")
            if target is not None:
                feeds.setdefault(
                    (target.component, target.name), component.content.probe
                )
    loops = []
    for component in components:
        if isinstance(component.content, RepairReactor):
            component.content.sensor = feeds.get((component, "failures"))
            component.content.detector = feeds.get((component, "suspicions"))
        if not isinstance(component.content, _ReactorShell):
            continue
        actuate = component.binding_controller.lookup("actuate")
        if actuate is None:
            raise ValueError(f"{component.name}: actuate is unbound")
        probe = feeds.get((component, "readings"))
        if probe is None:
            raise ValueError(f"no sensor feeds {component.name}")
        tier = actuate.delegate.tier
        reactor = component.content.reactor
        reactor.name = component.parent.name
        reactor.probe = probe
        tier.on_reconfigured.append(probe.window.reset)
        loops.append(ControlLoop(component.parent, probe, reactor, tier))
    return loops
