"""Tests for the ``target-utilization`` sizing policy (the model-based
capacity planner) on the generic policy reactor."""

import pytest

from repro.jade.control_loop import InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.self_optimization import LoopConfig
from repro.jade.sensors import CpuReading
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.obs.tracer import Tracer
from repro.policy.api import PolicyConfig, PolicyInputs
from repro.policy.queue_model import TargetUtilizationPolicy
from repro.workload.profiles import PiecewiseProfile


class FakeTier:
    def __init__(self, replicas=1):
        self.replica_count = replicas
        self.calls = []

    def grow(self):
        self.calls.append("grow")
        self.replica_count += 1
        return True

    def shrink(self):
        self.calls.append("shrink")
        self.replica_count -= 1
        return True


def make(kernel, tier=None, min_replicas=1, max_replicas=None, **policy):
    tier = tier or FakeTier()
    policy.setdefault("target_utilization", 0.60)
    reactor = PolicyReactor(
        kernel,
        tier,
        InhibitionLock(kernel, 60.0),
        TargetUtilizationPolicy(**policy),
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        warmup_samples=0,
    )
    return reactor, tier


def reading(kernel, value):
    return CpuReading(kernel.now, value, value, 1)


def target(utilization, replicas, min_replicas=1, max_replicas=None, **policy):
    inputs = PolicyInputs(
        t=0.0,
        smoothed=utilization,
        raw=utilization,
        node_count=replicas,
        replicas=replicas,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
    )
    return TargetUtilizationPolicy(**policy).decide(inputs, None).target


class TestPlanMath:
    def test_desired_replicas_from_demand(self):
        # U=0.9 on 2 replicas -> demand 1.8 -> at target 0.6 need 3.
        assert target(0.9, 2) == 3
        # U=0.2 on 3 replicas -> demand 0.6 -> 1 replica suffices.
        assert target(0.2, 3) == 1

    def test_floor_and_ceiling(self):
        assert target(0.01, 3, min_replicas=2, max_replicas=4) == 2
        assert target(1.0, 3, min_replicas=2, max_replicas=4) == 4

    def test_validation(self, kernel):
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(target_utilization=1.5)
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(hysteresis=-0.1)
        with pytest.raises(ValueError):
            make(kernel, min_replicas=0)


class TestPlannerDecisions:
    def test_grows_when_above_band(self, kernel):
        reactor, tier = make(kernel)
        tracer = reactor.tracer = Tracer(run_id="planner")
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        (verdict,) = [r for r in tracer.records() if r["kind"] == "policy-decided"]
        assert verdict["policy"] == "target-utilization"
        assert verdict["action"] == "grow" and verdict["reason"] == "above-max"

    def test_shrinks_when_below_band(self, kernel):
        reactor, tier = make(kernel, tier=FakeTier(replicas=3))
        reactor.on_reading(reading(kernel, 0.2))
        assert tier.calls == ["shrink"]

    def test_quiet_inside_hysteresis_band(self, kernel):
        reactor, tier = make(kernel, hysteresis=0.15)
        reactor.on_reading(reading(kernel, 0.70))  # within 0.60 +- 0.15
        assert tier.calls == []

    def test_no_action_when_plan_matches_current(self, kernel):
        reactor, tier = make(kernel, tier=FakeTier(replicas=1), hysteresis=0.0)
        # U=0.55 on 1 replica: demand 0.55 -> ceil(0.55/0.6)=1 == current.
        reactor.on_reading(reading(kernel, 0.55))
        assert tier.calls == []

    def test_inhibition_respected(self, kernel):
        reactor, tier = make(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        assert reactor.decisions_suppressed == 1


class TestPlannerEndToEnd:
    def test_planner_handles_big_step(self):
        """A large load step: the planner provisions the DB tier out and
        back with its own target, no hand-set min/max band."""
        profile = PiecewiseProfile(
            [(0.0, 80), (120.0, 400), (900.0, 80)], duration_s=1400.0
        )
        planner = PolicyConfig.parse("target-utilization:target_utilization=0.55")
        cfg = ExperimentConfig(
            profile=profile,
            seed=14,
            db_loop=LoopConfig(window_s=90.0, policy=planner),
            app_loop=LoopConfig(window_s=60.0, policy=planner),
        )
        system = ManagedSystem(cfg)
        col = system.run()
        assert system.db_tier.grows_completed >= 2
        assert system.db_tier.shrinks_completed >= 1
        # Latency was kept interactive through the step.
        tail = col.latencies.window(600.0, 900.0)
        assert tail.mean() < 0.5
        # Utilization settled near the target after scaling.
        settled = col.tier_cpu["database"].window(700.0, 900.0)
        assert settled.mean() < 0.75
