"""Tests for the policy reactor under the paper's threshold policies, and
the inhibition lock."""

import pytest

from repro.jade.control_loop import InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuReading
from repro.policy.threshold import AdaptiveThresholdPolicy, ThresholdPolicy


class FakeTier:
    def __init__(self, replicas=1):
        self.replica_count = replicas
        self.calls = []
        self.accept = True

    def grow(self):
        self.calls.append("grow")
        if self.accept:
            self.replica_count += 1
        return self.accept

    def shrink(self):
        self.calls.append("shrink")
        if self.accept:
            self.replica_count -= 1
        return self.accept


def reading(kernel, smoothed, raw=None):
    return CpuReading(kernel.now, smoothed, raw if raw is not None else smoothed, 1)


def make_reactor(kernel, tier=None, policy=None, **kwargs):
    tier = tier if tier is not None else FakeTier()
    lock = kwargs.pop("inhibition", InhibitionLock(kernel, 60.0))
    kwargs.setdefault("warmup_samples", 0)
    reactor = PolicyReactor(kernel, tier, lock, policy or ThresholdPolicy(), **kwargs)
    return reactor, tier, lock


class TestInhibitionLock:
    def test_acquire_then_blocked(self, kernel):
        lock = InhibitionLock(kernel, 60.0)
        assert lock.try_acquire()
        assert not lock.try_acquire()
        assert lock.held

    def test_frees_after_duration(self, kernel):
        lock = InhibitionLock(kernel, 10.0)
        lock.try_acquire()
        kernel.run(until=10.0)
        assert lock.try_acquire()

    def test_counters(self, kernel):
        lock = InhibitionLock(kernel, 10.0)
        lock.try_acquire()
        lock.try_acquire()
        assert lock.acquisitions == 1
        assert lock.rejections == 1

    def test_negative_duration_rejected(self, kernel):
        with pytest.raises(ValueError):
            InhibitionLock(kernel, -1.0)


class TestThresholdReactor:
    def test_grow_above_max(self, kernel):
        reactor, tier, _ = make_reactor(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        assert reactor.grows_triggered == 1

    def test_shrink_below_min(self, kernel):
        reactor, tier, _ = make_reactor(kernel, FakeTier(replicas=3))
        reactor.on_reading(reading(kernel, 0.1))
        assert tier.calls == ["shrink"]
        assert reactor.shrinks_triggered == 1

    def test_dead_band_does_nothing(self, kernel):
        reactor, tier, _ = make_reactor(kernel)
        reactor.on_reading(reading(kernel, 0.5))
        assert tier.calls == []

    def test_never_shrinks_below_min_replicas(self, kernel):
        reactor, tier, _ = make_reactor(kernel, FakeTier(replicas=1))
        reactor.on_reading(reading(kernel, 0.05))
        assert tier.calls == []
        # Symmetric with the at-cap path: a shrink stopped at the floor is
        # a suppressed decision too.
        assert reactor.decisions_suppressed == 1

    def test_floor_suppression_does_not_take_the_lock(self, kernel):
        reactor, tier, lock = make_reactor(kernel, FakeTier(replicas=1))
        reactor.on_reading(reading(kernel, 0.05))
        assert not lock.held
        assert reactor.shrinks_triggered == 0

    def test_nan_reading_is_an_explicit_no_data_decision(self, kernel):
        reactor, tier, lock = make_reactor(kernel)
        reactor.on_reading(reading(kernel, float("nan")))
        assert tier.calls == []
        assert reactor.no_data_decisions == 1
        # no-data is its own counter, not lumped into suppressions
        assert reactor.decisions_suppressed == 0
        assert not lock.held

    def test_nan_does_not_consume_warmup_decisions(self, kernel):
        """After NaN readings, a real reading still decides normally."""
        reactor, tier, _ = make_reactor(kernel)
        for _ in range(3):
            reactor.on_reading(reading(kernel, float("nan")))
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        assert reactor.no_data_decisions == 3

    def test_never_grows_above_max_replicas(self, kernel):
        reactor, tier, _ = make_reactor(
            kernel, FakeTier(replicas=3), max_replicas=3
        )
        reactor.on_reading(reading(kernel, 0.95))
        assert tier.calls == []
        assert reactor.decisions_suppressed == 1

    def test_inhibition_suppresses_consecutive_triggers(self, kernel):
        reactor, tier, _ = make_reactor(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        assert reactor.decisions_suppressed == 1

    def test_shared_inhibition_across_loops(self, kernel):
        lock = InhibitionLock(kernel, 60.0)
        r1, t1, _ = make_reactor(kernel, inhibition=lock)
        r2, t2, _ = make_reactor(kernel, FakeTier(replicas=3), inhibition=lock)
        r1.on_reading(reading(kernel, 0.9))
        r2.on_reading(reading(kernel, 0.1))  # blocked by r1's reconfiguration
        assert t1.calls == ["grow"]
        assert t2.calls == []

    def test_trigger_again_after_inhibition_expires(self, kernel):
        reactor, tier, _ = make_reactor(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        kernel.run(until=61.0)
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow", "grow"]

    def test_warmup_skips_early_samples(self, kernel):
        tier = FakeTier()
        lock = InhibitionLock(kernel, 60.0)
        reactor = PolicyReactor(
            kernel, tier, lock, ThresholdPolicy(), warmup_samples=3
        )
        for _ in range(2):
            reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == []
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]

    def test_rejected_actuation_counts_suppressed(self, kernel):
        tier = FakeTier()
        tier.accept = False
        reactor, _, _ = make_reactor(kernel, tier)
        reactor.on_reading(reading(kernel, 0.9))
        assert reactor.grows_triggered == 0
        assert reactor.decisions_suppressed == 1

    def test_threshold_validation(self, kernel):
        lock = InhibitionLock(kernel, 60.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(max_threshold=0.3, min_threshold=0.5)
        with pytest.raises(ValueError):
            PolicyReactor(kernel, FakeTier(), lock, ThresholdPolicy(), min_replicas=0)

    def test_fresh_sample_gate(self, kernel):
        """With a probe attached, decisions wait for fresh evidence."""

        class FakeProbe:
            class window:
                sample_count = 3

        reactor, tier, _ = make_reactor(kernel, fresh_samples_required=5)
        reactor.probe = FakeProbe()
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == []
        FakeProbe.window.sample_count = 10
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]


class TestAdaptiveReactor:
    def make(self, kernel, **kwargs):
        tier = FakeTier(replicas=2)
        lock = InhibitionLock(kernel, 0.0)  # no inhibition: test adaptation
        policy = AdaptiveThresholdPolicy(
            min_threshold=0.35,
            oscillation_window_s=100.0,
            widen_step=0.05,
            **kwargs,
        )
        reactor = PolicyReactor(kernel, tier, lock, policy, warmup_samples=0)
        # the live (adapted) band is the policy's runtime state
        return reactor, tier, reactor.policy_state

    def test_oscillation_widens_band(self, kernel):
        reactor, tier, live = self.make(kernel)
        reactor.on_reading(reading(kernel, 0.9))   # grow
        kernel.run(until=10.0)
        reactor.on_reading(reading(kernel, 0.1))   # shrink soon after: oscillation
        assert live.min_threshold == pytest.approx(0.30)
        assert live.adaptations == 1

    def test_no_adaptation_for_slow_changes(self, kernel):
        reactor, tier, live = self.make(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        kernel.run(until=500.0)  # beyond the oscillation window
        reactor.on_reading(reading(kernel, 0.1))
        assert live.min_threshold == pytest.approx(0.35)

    def test_band_floor_respected(self, kernel):
        reactor, tier, live = self.make(kernel, min_floor=0.30)
        for _ in range(10):
            reactor.on_reading(reading(kernel, 0.9))
            reactor.on_reading(reading(kernel, 0.1))
            tier.replica_count = 2
        assert live.min_threshold >= 0.30

    def test_relaxation_narrows_band_back(self, kernel):
        reactor, tier, live = self.make(kernel, relax_after_s=50.0)
        reactor.on_reading(reading(kernel, 0.9))
        kernel.run(until=10.0)
        reactor.on_reading(reading(kernel, 0.1))
        assert live.min_threshold < 0.35
        tier.replica_count = 2
        kernel.run(until=200.0)
        reactor.on_reading(reading(kernel, 0.9))  # quiet period passed
        assert live.min_threshold > 0.30
