"""Tests for the proactive capacity manager (repro.capacity.proactive)."""

import pytest

from repro.capacity.proactive import ProactiveConfig, ProactiveManager
from repro.jade.control_loop import InhibitionLock
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.policy.api import DecisionReason
from repro.obs.tracer import Tracer
from repro.simulation.kernel import SimKernel
from repro.workload.profiles import RampProfile


class FakeTier:
    """A TierManager stand-in recording grow/shrink calls."""

    def __init__(self, name: str, replicas: int = 1, can_grow: bool = True):
        self.tier_name = name
        self.replica_count = replicas
        self.can_grow = can_grow
        self.grows = 0
        self.shrinks = 0

    def grow(self) -> bool:
        if not self.can_grow:
            return False
        self.grows += 1
        self.replica_count += 1
        return True

    def shrink(self) -> bool:
        self.shrinks += 1
        self.replica_count -= 1
        return True


class Harness:
    """A ProactiveManager wired to fakes, driven by a real kernel.

    ``use_whatif=False`` keeps the unit tests purely analytic — the
    planner acts on its projection instead of forking branch simulations.
    """

    def __init__(self, config=None, app_replicas=1, db_replicas=1):
        self.kernel = SimKernel()
        self.app_tier = FakeTier("application", app_replicas)
        self.db_tier = FakeTier("database", db_replicas)
        self.inhibition = InhibitionLock(self.kernel, 60.0)
        self.load = 100.0
        self.manager = ProactiveManager(
            self.kernel,
            self.app_tier,
            self.db_tier,
            self.inhibition,
            load_provider=lambda: self.load,
            snapshot_source=lambda: pytest.fail("whatif disabled"),
            app_thresholds=(0.80, 0.38),
            db_thresholds=(0.75, 0.40),
            config=config
            or ProactiveConfig(plan_period_s=10.0, use_whatif=False),
        )

    def run_with_load(self, points):
        """Advance time, setting the offered load at each step."""
        self.manager.start()
        for t, load in points:
            self.load = load
            self.kernel.run(until=t)
        self.manager.stop()


def rising(end=100.0, start_load=100.0, slope=2.0):
    return [(t, start_load + slope * t) for t in range(10, int(end) + 1, 10)]


class TestProjectionPlanning:
    def test_rising_load_near_threshold_grows_early(self):
        h = Harness()
        # DB at 0.60 smoothed with load doubling over the horizon projects
        # past 0.85 * 0.75.
        h.manager._tier_cpu["db"] = 0.60
        h.run_with_load(rising())
        assert h.db_tier.grows >= 1
        assert h.manager.grows_triggered >= 1

    def test_cold_tier_never_grows(self):
        h = Harness()
        h.manager._tier_cpu["db"] = 0.20
        h.manager._tier_cpu["app"] = 0.20
        h.run_with_load(rising(slope=0.5))
        assert h.db_tier.grows == 0
        assert h.app_tier.grows == 0

    def test_no_cpu_reading_no_action(self):
        # NaN projection (no probe reading yet) must never actuate.
        h = Harness()
        h.run_with_load(rising(slope=10.0))
        assert h.db_tier.grows == 0
        assert h.manager.grows_triggered == 0

    def test_falling_load_shrinks_multi_replica_tier(self):
        h = Harness(db_replicas=3)
        h.manager._tier_cpu["db"] = 0.45
        h.run_with_load([(t, max(10.0, 300.0 - 4.0 * t)) for t in range(10, 101, 10)])
        assert h.db_tier.shrinks >= 1
        assert h.manager.shrinks_triggered >= 1

    def test_single_replica_tier_never_shrinks(self):
        h = Harness(db_replicas=1)
        h.manager._tier_cpu["db"] = 0.05
        h.run_with_load([(t, max(5.0, 200.0 - 4.0 * t)) for t in range(10, 101, 10)])
        assert h.db_tier.shrinks == 0

    def test_cpu_listener_feeds_projection(self):
        h = Harness()

        class Reading:
            smoothed = 0.7

        h.manager.cpu_listener("db")(Reading())
        assert h.manager._tier_cpu["db"] == 0.7


class TestInhibitionRouting:
    def test_held_lock_suppresses_decision(self):
        h = Harness()
        h.manager._tier_cpu["db"] = 0.75
        tracer = Tracer(run_id="t")
        h.manager.tracer = tracer
        assert h.inhibition.try_acquire("resize-db")  # reactive loop holds it
        h.manager.start()
        h.load = 300.0
        h.kernel.run(until=10.0)  # first planning tick, lock still held
        h.manager.stop()
        assert h.db_tier.grows == 0
        assert h.manager.decisions_suppressed >= 1
        suppressed = [
            r
            for r in tracer.records()
            if r["kind"] == "proactive-decision" and not r["executed"]
        ]
        assert suppressed
        assert suppressed[0]["reason"] == DecisionReason.INHIBITED

    def test_proactive_grow_holds_the_shared_lock(self):
        h = Harness()
        h.manager._tier_cpu["db"] = 0.75
        h.manager.start()
        h.load = 400.0
        h.kernel.run(until=10.0)
        h.manager.stop()
        assert h.db_tier.grows == 1
        # The reactive loops are now inhibited by the proactive action.
        assert h.inhibition.held
        assert not h.inhibition.try_acquire("resize-db")

    def test_busy_actuator_records_suppression(self):
        h = Harness()
        h.db_tier.can_grow = False
        h.manager._tier_cpu["db"] = 0.75
        tracer = Tracer(run_id="t")
        h.manager.tracer = tracer
        h.manager.start()
        h.load = 400.0
        h.kernel.run(until=10.0)
        h.manager.stop()
        assert h.manager.grows_triggered == 0
        assert h.manager.decisions_suppressed >= 1
        reasons = [
            r["reason"]
            for r in tracer.records()
            if r["kind"] == "proactive-decision" and not r["executed"]
        ]
        assert DecisionReason.ACTUATOR_BUSY in reasons


class TestTracing:
    def test_forecast_events_and_causality(self):
        h = Harness()
        h.manager._tier_cpu["db"] = 0.75
        tracer = Tracer(run_id="t")
        h.manager.tracer = tracer
        h.manager.start()
        h.load = 400.0
        h.kernel.run(until=10.0)
        h.manager.stop()
        records = tracer.records()
        forecasts = [r for r in records if r["kind"] == "forecast-issued"]
        decisions = [r for r in records if r["kind"] == "proactive-decision"]
        assert forecasts and decisions
        assert forecasts[0]["model"] == "trend"
        assert decisions[0]["reason"] == DecisionReason.PREDICTED_ABOVE_MAX
        # The decision chains back to the forecast that motivated it.
        assert decisions[0]["cause"] == forecasts[0]["seq"]

    def test_counters_track_forecasts(self):
        h = Harness()
        h.run_with_load(rising(end=50.0))
        assert h.manager.forecasts_issued == 5


class TestIntegration:
    def test_pool_exhaustion_under_overprovisioning(self):
        """An aggressive proactive policy on a tiny pool must run out of
        nodes gracefully: failed grows become suppressed decisions and the
        run still completes."""
        profile = RampProfile(
            base=80, peak=320, step_period_s=10.0, warmup_s=40.0, cooldown_s=40.0
        )
        config = ExperimentConfig(
            profile=profile,
            seed=9,
            managed=False,  # the proactive manager is the only actor
            proactive=True,
            proactive_config=ProactiveConfig(
                plan_period_s=10.0,
                use_whatif=False,
                grow_margin=0.1,  # grow on any warm projection
            ),
            pool_nodes=5,  # 2 balancers + tomcat1 + mysql1 + 1 spare
            sample_nodes=False,
        )
        system = ManagedSystem(config)
        tracer = Tracer(run_id="exhaustion")
        system._wire_tracer(tracer)
        system.run()
        proactive = system.proactive
        # The spare node was consumed, and at least one further grow hit
        # an exhausted pool and was recorded as a suppressed decision.
        assert proactive.grows_triggered >= 1
        assert proactive.decisions_suppressed >= 1
        assert (
            system.app_tier.grow_failures + system.db_tier.grow_failures >= 1
        )
        failures = [
            r for r in tracer.records() if r["kind"] == "node-failed"
        ]
        assert any(r["reason"] == "no-free-node" for r in failures)
        # The run itself completed despite the exhaustion.
        assert system.kernel.now >= profile.duration_s

    def test_traced_parent_still_branches(self, tmp_path):
        """The checkpoint leaves the tracer and its open JSONL sink behind:
        a proactive run tracing to a file runs to the end, and its trace
        keeps the chain forecast -> what-if evaluation -> decision."""
        from repro.obs.tracer import load_jsonl

        profile = RampProfile(
            base=80, peak=260, step_period_s=15.0, warmup_s=60.0, cooldown_s=60.0
        )
        sink = tmp_path / "proactive.jsonl"
        config = ExperimentConfig(
            profile=profile,
            seed=11,
            managed=True,
            proactive=True,
            proactive_config=ProactiveConfig(
                plan_period_s=15.0,
                min_eval_interval_s=45.0,
                grow_margin=0.7,
                # long enough for a DB grow to pay for its own sync
                horizon_s=90.0,
            ),
            sample_nodes=False,
            trace_jsonl=str(sink),
        )
        system = ManagedSystem(config)
        system.run()
        assert system.kernel.now >= profile.duration_s
        records = load_jsonl(str(sink))
        by_seq = {r["seq"]: r for r in records}
        decisions = [
            r for r in records
            if r["kind"] == "proactive-decision" and r.get("cause") in by_seq
            and by_seq[r["cause"]]["kind"] == "whatif-evaluated"
        ]
        assert decisions, "expected a decision caused by a what-if evaluation"
        for decision in decisions:
            evaluation = by_seq[decision["cause"]]
            assert by_seq[evaluation["cause"]]["kind"] == "forecast-issued"

    def test_proactive_system_traces_whatif_chain(self):
        """A real managed run with what-if enabled emits the full causal
        chain: forecast -> what-if evaluation -> proactive decision."""
        profile = RampProfile(
            base=80, peak=260, step_period_s=15.0, warmup_s=60.0, cooldown_s=60.0
        )
        config = ExperimentConfig(
            profile=profile,
            seed=11,
            managed=True,
            proactive=True,
            proactive_config=ProactiveConfig(
                plan_period_s=15.0,
                min_eval_interval_s=45.0,
                grow_margin=0.7,
                horizon_s=45.0,
            ),
            sample_nodes=False,
        )
        system = ManagedSystem(config)
        tracer = Tracer(run_id="whatif-chain")
        system._wire_tracer(tracer)
        system.run()
        records = tracer.records()
        by_seq = {r["seq"]: r for r in records}
        evaluations = [r for r in records if r["kind"] == "whatif-evaluated"]
        assert evaluations, "expected at least one what-if evaluation"
        for ev in evaluations:
            assert by_seq[ev["cause"]]["kind"] == "forecast-issued"
            assert ev["candidates"] >= 1
            assert "/" in ev["best"]
