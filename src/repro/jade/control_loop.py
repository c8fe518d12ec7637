"""Control-loop assembly.

"Each autonomic manager in Jade is based on a control loop that includes
sensor, actuator and analysis/decision components ... Sensors, Actuators
and Reactors are implemented as Fractal components, which allows reusing
and combining them to assemble specific autonomic managers.  Moreover,
this allows autonomic managers to be deployed and managed using the same
Jade framework (Jade administrates itself)." (§3.4)

:func:`ControlLoop.build` therefore wraps the sensor / reactor / actuator
content objects in primitive Fractal components, binds them
sensor→reactor→actuator, and nests them in a composite — the manager can
be introspected, stopped and restarted through the exact same uniform
interface as the managed J2EE servers.
"""

from __future__ import annotations

from typing import Optional

from repro.fractal.component import Component
from repro.fractal.interfaces import CLIENT, MANDATORY, SERVER, InterfaceType
from repro.jade.actuators import TierManager
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuProbe, CpuReading
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
    server interface and delegates decisions to the policy reactor."""

    def __init__(self, reactor: PolicyReactor) -> None:
        self.reactor = reactor

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

    @classmethod
    def build(
        cls,
        kernel: SimKernel,
        name: str,
        probe: CpuProbe,
        reactor: PolicyReactor,
        tier: TierManager,
    ) -> "ControlLoop":
        """Assemble sensor → reactor → actuator components in a composite."""
        sensor_comp = Component(
            f"{name}-sensor",
            interface_types=[
                InterfaceType(
                    "notify", "readings", role=CLIENT, contingency=MANDATORY
                ),
            ],
            content=_SensorShell(probe),
        )
        reactor_comp = Component(
            f"{name}-reactor",
            interface_types=[
                InterfaceType("readings", "readings", role=SERVER),
                InterfaceType(
                    "actuate", "resize", role=CLIENT, contingency=MANDATORY
                ),
            ],
            content=_ReactorShell(reactor),
        )
        actuator_comp = Component(
            f"{name}-actuator",
            interface_types=[InterfaceType("resize", "resize", role=SERVER)],
            content=_ActuatorShell(tier),
        )
        sensor_comp.bind("notify", reactor_comp.get_interface("readings"))
        reactor_comp.bind("actuate", actuator_comp.get_interface("resize"))
        # Route the reactor's decisions through the actuate binding.
        reactor.tier = _TierThroughInterface(reactor_comp)
        # The loop's name identifies the reactor in decision traces.
        reactor.name = name
        # Reconfigurations invalidate the probe's history: samples taken
        # against the previous replica set no longer describe the system.
        reactor.probe = probe
        tier.on_reconfigured.append(probe.window.reset)
        composite = Component(name, composite=True)
        for sub in (sensor_comp, reactor_comp, actuator_comp):
            composite.content_controller.add(sub)
        return cls(composite, probe, reactor, tier)

    def start(self) -> None:
        self.composite.start()

    def stop(self) -> None:
        self.composite.stop()

    @property
    def running(self) -> bool:
        return self.composite.lifecycle_controller.is_started()


# Public aliases: the ADL-based manager deployment (repro.jade.manager_adl)
# builds the same shells around sensors/reactors/actuators.
SensorShell = _SensorShell
ReactorShell = _ReactorShell
ActuatorShell = _ActuatorShell
TierThroughInterface = _TierThroughInterface
