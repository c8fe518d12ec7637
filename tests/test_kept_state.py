"""The management path's state kept on change.

The per-second probes, node sampler and fluid engine read state that is
rebuilt only at the events that change it: a tier's serving nodes
(``TierManager.active_nodes``), the metrics sampler's involved nodes, a
node's static memory footprint and a control loop's Fractal interfaces,
whose client side keeps each operation it resolved until its binding
changes.  These tests compare each kept value with a fresh computation
wherever the inputs move: replica grows (a database one through
SYNCING), shrinks, crash repairs, planned bounces and rebinds.
"""

from __future__ import annotations

import pytest

from repro.chaos import faults as F
from repro.chaos.campaign import ChaosCampaign, campaign_config
from repro.cluster.node import Node, make_nodes
from repro.deploy.scenario import PRESETS, deploy_config, with_strategy
from repro.fractal.component import Component
from repro.fractal.controllers import LifecycleState
from repro.fractal.errors import IllegalBindingError, IllegalLifecycleError
from repro.fractal.interfaces import SERVER, InterfaceType
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.legacy.cjdbc import BackendState
from repro.metrics.aggregates import left_sum
from repro.simulation.kernel import SimKernel
from repro.workload.profiles import ConstantProfile, RampProfile
from tests.conftest import deploy_loop
from tests.test_control_loop import FakeTier


def fresh_active_nodes(tier) -> list[Node]:
    """``active_nodes()`` computed from scratch."""
    return [
        r.node
        for r in tier.replicas
        if r.component.name not in tier.maintenance
        and (tier.ready_check is None or tier.ready_check(r))
    ]


class ActiveNodesWatch:
    """Wraps each tier probe's node provider: at every sample, the kept
    list must equal a fresh scan.  Counts what the samples saw so a test
    can show its scenario reached the case it is about."""

    def __init__(self, system: ManagedSystem) -> None:
        self.samples = 0
        self.quarantined = 0  # samples with a replica in maintenance
        self.syncing = 0  # samples with a database replica not yet ready
        for label, tier in (("app", system.app_tier), ("db", system.db_tier)):
            probe = system._tier_probes[label]
            assert probe.nodes_provider == tier.active_nodes
            probe.nodes_provider = self._checked(tier)

    def _checked(self, tier):
        def provider() -> list[Node]:
            kept = tier.active_nodes()
            assert kept == fresh_active_nodes(tier), tier.tier_name
            self.samples += 1
            self.quarantined += bool(tier.maintenance)
            quarantined = tier.maintenance
            serving = [r for r in tier.replicas if r.component.name not in quarantined]
            self.syncing += len(kept) < len(serving)
            return kept

        return provider


def involved_nodes_checked(system: ManagedSystem) -> list[int]:
    """Wrap the node sampler: each sample's kept involved-node list must
    equal ``involved_nodes()``.  Returns the one-item sample counter."""
    count = [0]
    sample = system._sample_nodes

    def checked() -> None:
        sample()
        assert system._involved == system.involved_nodes()
        count[0] += 1

    system._sample_nodes = checked
    return count


def managed_ramp() -> ManagedSystem:
    """The ramp lock's managed run: both tiers grow (the database through
    SYNCING) and shrink."""
    scale = 0.15
    profile = RampProfile(
        peak=500,
        warmup_s=300.0 * scale,
        step_period_s=60.0 * scale,
        cooldown_s=300.0 * scale,
    )
    return ManagedSystem(ExperimentConfig(profile=profile, seed=1))


class TestActiveNodesAtEverySample:
    def test_managed_ramp_grows_and_shrinks(self):
        system = managed_ramp()
        watch = ActiveNodesWatch(system)
        involved = involved_nodes_checked(system)
        system.run()
        assert watch.samples > 900 and involved[0] > 450
        assert system.db_tier.grows_completed >= 1
        assert system.app_tier.shrinks_completed >= 1
        assert watch.syncing > 0

    @pytest.mark.parametrize(
        "preset, strategy, quarantines",
        [
            ("clean-bounce", "crossover", False),  # grows and shrinks
            ("clean-bounce", "downthenup", True),  # in place, one at a time
            ("clean-bounce", "brutal", True),
            ("crash-mid-bounce", "downthenup", True),
        ],
    )
    def test_deploy_bounce(self, preset, strategy, quarantines):
        scenario = with_strategy(PRESETS[preset](), strategy)
        config = deploy_config(scenario, seed=1, clients=120, duration_s=540.0)
        system = ManagedSystem(config)
        watch = ActiveNodesWatch(system)
        system.run()
        assert watch.samples > 1000
        assert (watch.quarantined > 0) == quarantines
        assert system.app_tier.maintenance == frozenset()
        assert system.app_tier.grows_completed + system.app_tier.shrinks_completed > 0

    @pytest.mark.parametrize("target", ["app", "db"])
    def test_recovery_repairs_a_crash(self, target):
        campaign = ChaosCampaign("crash", (F.crash(100.0, target=target),))
        config = campaign_config(campaign, seed=1, clients=60, duration_s=240.0)
        system = ManagedSystem(config)
        watch = ActiveNodesWatch(system)
        involved = involved_nodes_checked(system)
        system.run()
        tier = system.app_tier if target == "app" else system.db_tier
        assert tier.repairs_completed == 1
        assert watch.samples > 400 and involved[0] > 200


class TestActiveNodesChanges:
    def test_adopt_is_seen(self):
        system = ManagedSystem(ExperimentConfig(managed=False))
        tier = system.app_tier
        assert tier.active_nodes() == fresh_active_nodes(tier)
        spare = system.cluster.allocate("test")
        tier.adopt(Component("extra"), spare, None)
        assert tier.active_nodes() == fresh_active_nodes(tier)
        assert spare in tier.active_nodes()

    def test_maintenance_enter_and_leave(self):
        system = ManagedSystem(ExperimentConfig(managed=False))
        tier = system.app_tier
        name = tier.replicas[0].component.name
        assert tier.active_nodes() == [tier.replicas[0].node]
        tier.enter_maintenance(name)
        assert tier.maintenance == {name}
        assert tier.active_nodes() == []
        tier.leave_maintenance(name)
        assert tier.active_nodes() == [tier.replicas[0].node]
        with pytest.raises(AttributeError):
            tier.maintenance.add(name)  # quarantine only through the methods

    def test_reattached_backend_leaves_while_syncing(self):
        """A backend detached and attached again behind the recovery log
        is SYNCING: the tier stops counting it at once, and counts it
        again once it is enabled."""
        config = ExperimentConfig(
            profile=ConstantProfile(60, 300.0), managed=False, seed=1
        )
        system = ManagedSystem(config)
        tier = system.db_tier
        system.start_all()
        system.kernel.schedule_at(20.0, tier.grow)
        system.advance(150.0)
        assert tier.replica_count == 2
        record = tier.replicas[-1]
        assert tier.active_nodes() == [r.node for r in tier.replicas]
        controller = system.cjdbc.content.controller
        controller.detach_backend(record.binding_instance)
        system.advance(170.0)  # writes move the log past the checkpoint
        assert tier.active_nodes() == fresh_active_nodes(tier)
        handle = controller.attach_backend(
            record.binding_instance, record.component.content.mysql
        )
        assert handle.state is BackendState.SYNCING
        assert record.node not in tier.active_nodes()
        assert tier.active_nodes() == fresh_active_nodes(tier)
        system.advance(200.0)
        assert handle.state is BackendState.ENABLED
        assert tier.active_nodes() == [r.node for r in tier.replicas]


class Recorder:
    """Content of a stand-in reactor or actuator: records each call."""

    def __init__(self) -> None:
        self.calls: list[str] = []

    def on_reading(self, reading) -> None:
        self.calls.append("reading")

    def grow(self) -> bool:
        self.calls.append("grow")
        return True

    def shrink(self) -> bool:
        self.calls.append("shrink")
        return True

    def replica_count(self) -> int:
        self.calls.append("replica_count")
        return 1


def recorder_component(name: str, itf: str, signature: str) -> tuple[Component, Recorder]:
    content = Recorder()
    component = Component(
        name, interface_types=[InterfaceType(itf, signature, role=SERVER)], content=content
    )
    component.start()
    return component, content


@pytest.fixture
def loop(kernel: SimKernel):
    nodes = make_nodes(kernel, 1)
    tier = FakeTier(nodes)
    control_loop = deploy_loop(
        kernel, tier, "rebind", window_s=5.0, fresh_samples=1, inhibition_s=0.0
    )
    control_loop.start()
    return control_loop, tier, nodes


def subcomponent(control_loop, suffix: str) -> Component:
    (component,) = [
        c
        for c in control_loop.composite.content_controller.sub_components()
        if c.name == f"rebind-{suffix}"
    ]
    return component


class TestRebindMidRun:
    def test_notify_rebind_reaches_new_target(self, loop, kernel):
        control_loop, tier, nodes = loop
        kernel.run(until=3.5)
        sensor = subcomponent(control_loop, "sensor")
        recorder, content = recorder_component("recorder", "readings", "readings")
        sensor.stop()
        sensor.unbind("notify")
        sensor.bind("notify", recorder.get_interface("readings"))
        sensor.start()
        seen = control_loop.reactor._samples_seen
        kernel.run(until=5.0)  # the restarted probe samples at t=4.5
        assert content.calls == ["reading"]
        assert control_loop.reactor._samples_seen == seen

    def test_actuate_rebind_reaches_new_target(self, loop, kernel):
        control_loop, tier, nodes = loop
        kernel.run(until=0.5)
        reactor = subcomponent(control_loop, "reactor")
        recorder, content = recorder_component("recorder", "resize", "resize")
        reactor.stop()
        reactor.unbind("actuate")
        reactor.bind("actuate", recorder.get_interface("resize"))
        reactor.start()
        nodes[0].run_job(1e9)  # saturate: the window fills and grows
        kernel.run(until=6.5)
        assert content.calls[0] == "replica_count"
        assert "grow" in content.calls
        assert tier.calls == []


@pytest.fixture
def fluid_system() -> ManagedSystem:
    """A started managed system under a constant overload on the fluid
    engine: the database loop grows at t=30 s and again at t=90 s."""
    config = ExperimentConfig(profile=ConstantProfile(600, 600.0), seed=3, fluid=True)
    system = ManagedSystem(config)
    system.start_all()
    return system


def loop_part(system: ManagedSystem, label: str, part: str) -> Component:
    """The ``part`` (sensor, reactor, actuator) of a deployed CPU loop."""
    composite = system.optimizer.loops[label].composite
    (component,) = [
        c
        for c in composite.content_controller.sub_components()
        if c.name == f"resize-{label}-{part}"
    ]
    return component


class TestResolutionInManagedSystem:
    """A client interface keeps each operation it resolved until its
    binding changes: after a rebind or unbind in a running system, the
    next call goes where the binding now points.  Every operation used
    below has been resolved before the binding changes."""

    def test_notify_rebind_reaches_second_reactor(self, fluid_system):
        system = fluid_system
        system.advance(10.0)
        reactor = system.optimizer.loops["app"].reactor
        seen = reactor._samples_seen
        assert seen == 10
        sensor = loop_part(system, "app", "sensor")
        second, content = recorder_component("second", "readings", "readings")
        sensor.stop()
        sensor.unbind("notify")
        sensor.bind("notify", second.get_interface("readings"))
        sensor.start()
        system.advance(12.0)
        assert content.calls == ["reading", "reading"]
        assert reactor._samples_seen == seen

    def test_actuate_rebind_takes_the_next_grow(self, fluid_system):
        system = fluid_system
        system.advance(40.0)
        assert system.db_tier.grows_completed == 1  # at t=30 s
        reactor = loop_part(system, "db", "reactor")
        second, content = recorder_component("second", "resize", "resize")
        reactor.stop()
        reactor.unbind("actuate")
        reactor.bind("actuate", second.get_interface("resize"))
        reactor.start()
        system.advance(100.0)
        assert "grow" in content.calls
        assert system.db_tier.replica_count == 2
        assert system.db_tier.grows_completed == 1

    def test_unbound_notify_raises_at_the_next_push(self, fluid_system):
        system = fluid_system
        system.advance(10.0)
        sensor = loop_part(system, "app", "sensor")
        sensor.stop()
        sensor.unbind("notify")
        with pytest.raises(IllegalLifecycleError, match="'notify' is unbound"):
            sensor.start()
        # The life-cycle controller never starts a sensor whose mandatory
        # notify is unbound; mark it started to see what a push does.
        sensor.lifecycle_controller._state = LifecycleState.STARTED
        sensor.content.probe.on_start()
        with pytest.raises(
            IllegalBindingError,
            match="client interface resize-app-sensor.notify is not bound",
        ):
            system.advance(12.0)

    def test_stopped_sensor_pushes_nothing(self, fluid_system):
        system = fluid_system
        system.advance(10.0)
        reactor = system.optimizer.loops["app"].reactor
        sensor = loop_part(system, "app", "sensor")
        sensor.stop()
        probe = sensor.content.probe
        assert not probe.running
        probe.on_start()  # the probe samples, the stopped component is silent
        taken = probe.samples_taken
        system.advance(15.0)
        assert probe.samples_taken == taken + 5
        assert reactor._samples_seen == 10


class TestNodeFootprint:
    def test_memory_used_equals_recomputed_sum(self, kernel):
        node = Node(kernel, "n1", memory_mb=4096.0, base_os_mb=96.0, per_job_mb=1.5)
        steps = [
            ("tomcat", 24.0), ("jade:mgmt", 0.1), ("mysql", 30.3), ("tomcat", None),
            ("cjdbc", 12.7), ("jade:mgmt", 0.2), ("missing", None), ("plb", 4.4),
            ("mysql", None), ("tomcat", 24.0),
        ]
        for name, mb in steps:
            if mb is None:
                node.unregister_footprint(name)
            else:
                node.register_footprint(name, mb)
            expected = node.base_os_mb + left_sum(node.footprints.values())
            assert node.memory_used_mb() == expected
            assert node.memory_utilization() == expected / node.memory_mb
        node.run_job(5.0)
        assert node.memory_used_mb() == expected + 1.5
        assert node.memory_utilization() == (expected + 1.5) / node.memory_mb
        for _ in range(3000):  # past the node's memory: capped at 1.0
            node.run_job(5.0)
        assert node.memory_utilization() == 1.0
