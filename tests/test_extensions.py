"""Tests for the extensions: latency-SLO manager, three-tier harness,
rolling rebind."""

import pickle

import pytest

from repro.fractal.introspection import verify_architecture
from repro.jade.actuators import BottleneckActuator
from repro.jade.control_loop import InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.rolling import RollingRebind
from repro.jade.sensors import LatencyReading, LatencySensor
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.jade.three_tier import three_tier_config
from repro.metrics.series import TimeSeries
from repro.policy.threshold import LatencyBandPolicy
from repro.workload.profiles import PiecewiseProfile, RampProfile
from tests.conftest import collector_digest


class TestLatencySensor:
    def test_consumes_series_incrementally(self, kernel):
        series = TimeSeries("lat")
        sensor = LatencySensor(kernel, series, window_s=10.0, period_s=1.0)
        readings = []
        sensor.subscribe(readings.append)
        sensor.on_start()
        kernel.schedule(0.5, series.append, 0.5, 0.2)
        kernel.schedule(1.5, series.append, 1.5, 0.4)
        kernel.run(until=3.0)
        assert readings[-1].smoothed == pytest.approx(0.3)

    def test_silent_periods_emit_nothing_when_empty(self, kernel):
        series = TimeSeries("lat")
        sensor = LatencySensor(kernel, series, window_s=5.0)
        readings = []
        sensor.subscribe(readings.append)
        sensor.on_start()
        kernel.run(until=3.0)
        assert readings == []

    def test_window_ages_out(self, kernel):
        series = TimeSeries("lat")
        sensor = LatencySensor(kernel, series, window_s=2.0)
        readings = []
        sensor.subscribe(readings.append)
        sensor.on_start()
        series.append(0.0, 1.0)
        kernel.run(until=5.0)
        # After the window passed, there is nothing to report.
        assert readings[-1].t <= 2.0


class FakeTier:
    def __init__(self, name, util):
        self.tier_name = name
        self._util = util
        self.replica_count = 1
        self.busy = False
        self.calls = []

    def active_nodes(self):
        return []

    def grow(self):
        self.calls.append("grow")
        self.replica_count += 1
        return True

    def shrink(self):
        self.calls.append("shrink")
        self.replica_count -= 1
        return True


class TestSloReactor:
    """The latency-SLO loop's reactor: a policy reactor running the
    latency band over a bottleneck actuator, with one replica per tier as
    its floor."""

    def make(self, kernel, tiers, **band):
        band.setdefault("max_latency_s", 0.5)
        band.setdefault("min_latency_s", 0.05)
        actuator = BottleneckActuator(tiers)
        # Pin the utilization ranking without real nodes.
        actuator.utilization = lambda t: t._util
        return PolicyReactor(
            kernel,
            actuator,
            InhibitionLock(kernel, 60.0),
            LatencyBandPolicy(**band),
            min_replicas=len(tiers),
            warmup_samples=0,
            name="slo",
        )

    def reading(self, kernel, value):
        return LatencyReading(kernel.now, value, value, 1)

    def test_grows_hottest_tier_on_violation(self, kernel):
        cold = FakeTier("app", 0.2)
        hot = FakeTier("db", 0.9)
        reactor = self.make(kernel, [cold, hot])
        reactor.on_reading(self.reading(kernel, 1.0))
        assert hot.calls == ["grow"]
        assert cold.calls == []

    def test_shrinks_idlest_overprovisioned_tier(self, kernel):
        a = FakeTier("app", 0.1)
        b = FakeTier("db", 0.5)
        a.replica_count = 2
        b.replica_count = 2
        reactor = self.make(kernel, [a, b])
        reactor.on_reading(self.reading(kernel, 0.01))
        assert a.calls == ["shrink"]
        assert b.calls == []

    def test_never_shrinks_below_floor(self, kernel):
        a = FakeTier("app", 0.1)
        b = FakeTier("db", 0.5)
        reactor = self.make(kernel, [a, b])
        reactor.on_reading(self.reading(kernel, 0.01))
        # Every tier at one replica: held at the floor, lock untouched.
        assert a.calls == b.calls == []
        assert reactor.inhibition.acquisitions == 0
        # The idlest tier is at its floor: the other one shrinks.
        b.replica_count = 2
        reactor.on_reading(self.reading(kernel, 0.01))
        assert a.calls == []
        assert b.calls == ["shrink"]

    def test_in_band_is_quiet(self, kernel):
        a = FakeTier("app", 0.5)
        reactor = self.make(kernel, [a])
        reactor.on_reading(self.reading(kernel, 0.2))
        assert a.calls == []

    def test_inhibition_shared(self, kernel):
        a = FakeTier("app", 0.9)
        reactor = self.make(kernel, [a])
        reactor.on_reading(self.reading(kernel, 1.0))
        reactor.on_reading(self.reading(kernel, 1.0))
        assert a.calls == ["grow"]
        assert reactor.decisions_suppressed == 1

    def test_lock_trace_names_the_slo_loop(self, kernel):
        from repro.obs.tracer import Tracer

        a = FakeTier("app", 0.9)
        reactor = self.make(kernel, [a])
        tracer = reactor.inhibition.tracer = Tracer(run_id="slo")
        reactor.on_reading(self.reading(kernel, 1.0))  # acquires
        reactor.on_reading(self.reading(kernel, 1.0))  # rejected
        lock_events = [
            r for r in tracer.records() if r["kind"].startswith("inhibition-")
        ]
        assert [r["kind"] for r in lock_events] == [
            "inhibition-acquired",
            "inhibition-rejected",
        ]
        assert all(r["by"] == "slo" for r in lock_events)

    def test_window_restarts_when_a_resize_starts(self, kernel):
        a = FakeTier("app", 0.9)
        reactor = self.make(kernel, [a])
        restarts = []
        reactor.tier.on_reconfigured.append(lambda: restarts.append(kernel.now))
        reactor.on_reading(self.reading(kernel, 1.0))
        assert a.calls == ["grow"]
        assert restarts == [0.0]

    def test_validation(self, kernel):
        with pytest.raises(ValueError):
            self.make(kernel, [FakeTier("a", 0.1)], max_latency_s=0.1, min_latency_s=0.5)
        with pytest.raises(ValueError):
            ManagedSystem(
                ExperimentConfig(
                    use_slo_manager=True, slo_max_latency_s=0.1, slo_min_latency_s=0.5
                )
            )
        with pytest.raises(ValueError):
            BottleneckActuator([])


class TestSloManagerEndToEnd:
    def test_slo_manager_scales_under_step_load(self):
        profile = PiecewiseProfile([(0.0, 80), (60.0, 320)], duration_s=900.0)
        cfg = ExperimentConfig(
            profile=profile, seed=11, use_slo_manager=True, tail_s=30.0
        )
        system = ManagedSystem(cfg)
        col = system.run()
        # The DB was the bottleneck: SLO manager must have grown it.
        assert system.db_tier.grows_completed >= 1
        # SLO respected at the end of the run.
        tail = col.latencies.window(700.0, 900.0)
        assert tail.mean() < cfg.slo_max_latency_s

    def test_slo_manager_is_a_component(self):
        cfg = ExperimentConfig(use_slo_manager=True)
        system = ManagedSystem(cfg)
        (loop,) = system.optimizer.composite.content_controller.sub_components()
        assert loop.name == "slo"
        names = [c.name for c in loop.content_controller.sub_components()]
        assert names == ["slo-sensor", "slo-reactor", "slo-actuator"]
        slo = system.optimizer.loops["slo"]
        assert isinstance(slo.probe, LatencySensor)
        assert isinstance(slo.reactor.policy, LatencyBandPolicy)
        assert slo.reactor.min_replicas == 2
        assert [t.tier_name for t in slo.tier.tiers] == ["application", "database"]
        assert verify_architecture(system.optimizer.composite) == []


class TestThreeTier:
    CONFIG = three_tier_config(
        profile=RampProfile(warmup_s=150, step_period_s=30, cooldown_s=150), seed=2
    )
    #: the seed-2 ramp's (collector digest, events processed, tail
    #: dispatched, tombstones skipped), as the dedicated three-tier
    #: harness produced them before it folded into ManagedSystem; the
    #: digest re-recorded when the L4 switch stopped taking a node (each
    #: grow then allocates one node lower, so the reconfiguration log
    #: names node6 where it named node7; the kernel counts did not move)
    LOCK = (
        "927124277e8f812536464bbbfe1471316e0f2bd593e4369bb6859797caec75aa",
        468821, 321268, 1,
    )

    @pytest.fixture(scope="class")
    def run(self):
        system = ManagedSystem(self.CONFIG)
        system.run()
        return system

    def test_run_is_locked(self, run):
        kernel = run.kernel
        assert (
            collector_digest(run.collector),
            kernel.events_processed,
            kernel.tail_dispatched,
            kernel.tombstones_skipped,
        ) == self.LOCK

    def test_l4_switch_takes_no_node(self):
        # The L4 switch is network gear: it is deployed without a machine,
        # so the pool keeps that node free for the tiers to grow onto.
        system = ManagedSystem(three_tier_config())
        assert "l4" not in system.app.nodes
        assert system.cluster.free_count == 4

    def test_paused_run_pickles_into_an_independent_copy(self, run):
        """A copy of a paused run ends with the uninterrupted run's
        outputs, and so does the original: no closure of the copy still
        writes into the original's collector."""
        paused = ManagedSystem(self.CONFIG)
        horizon = paused.start_all()
        paused.advance(horizon / 2)
        assert paused.app_tier.grows_completed >= 1
        clone = pickle.loads(pickle.dumps(paused))
        expected = collector_digest(run.collector)
        assert collector_digest(clone.finish()) == expected
        assert collector_digest(paused.finish()) == expected

    def test_web_tier_scales(self, run):
        assert run.app_tier.tier_name == "web"
        assert run.app_tier.grows_completed >= 1
        assert run.collector.tier_replicas["web"].max() == 2

    def test_db_tier_scales(self, run):
        assert run.db_tier.grows_completed >= 1

    def test_both_tiers_shrink_on_descent(self, run):
        assert run.app_tier.shrinks_completed >= 1
        assert run.db_tier.shrinks_completed >= 1

    @pytest.mark.parametrize(
        "field", ["fluid", "proactive", "use_slo_manager"]
    )
    def test_extensions_need_the_rubis_balancers(self, field):
        with pytest.raises(ValueError, match="need an application with plb"):
            three_tier_config(**{field: True})

    def test_new_apache_bound_to_both_tomcats(self, run):
        # Find a grow event in the log: the added apache replica was bound
        # to both Tomcats via its mod_jk collection interface.
        grown = [
            c
            for c in run.app.root.content_controller.sub_components()
            if c.name.startswith("apache") and c.name != "apache"
        ]
        if grown:  # may already be shrunk away; check the event trail then
            apache = grown[0]
            assert len(apache.binding_controller.bound_instances("ajp")) == 2
        assert any("apache2" in d for _, d in run.collector.reconfigurations)

    def test_no_failed_requests(self, run):
        assert run.collector.failed_requests == 0


class TestRollingRebind:
    def build_web(self, kernel, lan, directory, n_apaches=3):
        from repro.cluster.node import make_nodes
        from repro.wrappers.apache import make_apache_component
        from repro.wrappers.tomcat import make_tomcat_component

        nodes = make_nodes(kernel, n_apaches + 2, prefix="w")
        kw = dict(kernel=kernel, directory=directory, lan=lan)
        tomcat_old = make_tomcat_component("t-old", node=nodes[-2], **kw)
        tomcat_new = make_tomcat_component("t-new", node=nodes[-1], **kw)
        apaches = []
        for i in range(n_apaches):
            apache = make_apache_component(f"a{i}", node=nodes[i], **kw)
            apache.bind("ajp", tomcat_old.get_interface("ajp"))
            apache.start()
            apaches.append(apache)
        return apaches, tomcat_old, tomcat_new

    def test_rolls_every_frontend(self, kernel, lan, directory):
        apaches, old, new = self.build_web(kernel, lan, directory)
        op = RollingRebind(
            kernel, apaches, "ajp", [new.get_interface("ajp")]
        ).start()
        kernel.run()
        assert op.done.fired
        assert op.restarted == 3
        for apache in apaches:
            assert apache.lifecycle_controller.is_started()
            bound = apache.binding_controller.bound_servers("ajp")
            assert [s.component.name for s in bound] == ["t-new"]

    def test_at_most_one_frontend_down_at_a_time(self, kernel, lan, directory):
        apaches, old, new = self.build_web(kernel, lan, directory)
        max_down = 0

        def watch():
            nonlocal max_down
            down = sum(
                1 for a in apaches if not a.lifecycle_controller.is_started()
            )
            max_down = max(max_down, down)

        kernel.every(0.1, watch)
        RollingRebind(
            kernel, apaches, "ajp", [new.get_interface("ajp")]
        ).start()
        kernel.run(until=60.0)
        assert max_down == 1

    def test_rebind_to_multiple_targets(self, kernel, lan, directory):
        apaches, old, new = self.build_web(kernel, lan, directory, n_apaches=1)
        RollingRebind(
            kernel,
            apaches,
            "ajp",
            [old.get_interface("ajp"), new.get_interface("ajp")],
        ).start()
        kernel.run()
        assert len(apaches[0].binding_controller.bound_instances("ajp")) == 2

    def test_validation(self, kernel):
        with pytest.raises(ValueError):
            RollingRebind(kernel, [], "ajp", ["x"])
