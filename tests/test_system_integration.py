"""End-to-end integration tests on the full managed system.

These exercise the complete reproduction pipeline: ADL deployment, legacy
request flow, control loops, resizing, metrics.  Scenarios are shortened
(minutes of simulated time, not the full 3000 s ramp) to keep the suite
fast; the full-scale runs live in benchmarks/.
"""

import pickle

import pytest

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile, PiecewiseProfile, RampProfile
from tests.conftest import collector_digest


class TestMediumLoad:
    """80 clients: the Table 1 operating point."""

    @pytest.fixture(scope="class")
    def run(self):
        cfg = ExperimentConfig(profile=ConstantProfile(80, 300.0), seed=5)
        system = ManagedSystem(cfg)
        system.run()
        return system

    def test_throughput_near_12_rps(self, run):
        assert run.summary()["throughput_rps"] == pytest.approx(12.0, rel=0.15)

    def test_no_reconfiguration_triggered(self, run):
        assert run.app_tier.grows_completed == 0
        assert run.db_tier.grows_completed == 0
        assert run.app_tier.shrinks_completed == 0
        assert run.db_tier.shrinks_completed == 0

    def test_no_failed_requests(self, run):
        assert run.collector.failed_requests == 0

    def test_latency_is_interactive(self, run):
        assert run.summary()["latency_mean_ms"] < 200.0

    def test_node_metrics_sampled(self, run):
        assert len(run.collector.node_cpu) > 250
        assert 0.05 < run.collector.node_cpu.mean() < 0.3
        assert 0.1 < run.collector.node_memory.mean() < 0.4

    def test_architecture_is_sound(self, run):
        from repro.fractal.introspection import verify_architecture

        assert verify_architecture(run.app.root) == []


class TestHeavyLoad:
    """A step to 300 clients: the DB tier must scale out."""

    @pytest.fixture(scope="class")
    def run(self):
        profile = PiecewiseProfile([(0.0, 80), (60.0, 300)], duration_s=900.0)
        cfg = ExperimentConfig(profile=profile, seed=6, tail_s=30.0)
        system = ManagedSystem(cfg)
        system.run()
        return system

    def test_db_tier_scaled_out(self, run):
        assert run.db_tier.replica_count >= 2
        assert run.db_tier.grows_completed >= 1

    def test_replicas_consistent_after_sync(self, run):
        backends = run.cjdbc.content.controller.enabled_backends()
        digests = {b.server.state_digest for b in backends}
        assert len(digests) == 1

    def test_cpu_pulled_back_between_thresholds(self, run):
        series = run.collector.tier_cpu["database"]
        tail = series.window(700.0, 900.0)
        cfg = run.config
        assert tail.mean() < cfg.db_loop.max_threshold

    def test_reconfiguration_events_logged(self, run):
        assert any("grow" in d for _, d in run.collector.reconfigurations)

    def test_workload_tracked(self, run):
        assert run.collector.workload.value_at(30.0) == 80
        assert run.collector.workload.value_at(120.0) == 300


class TestScaleDown:
    """Load drop: the tier shrinks and nodes return to the pool."""

    def test_shrink_after_load_drop(self):
        profile = PiecewiseProfile(
            [(0.0, 300), (600.0, 40)], duration_s=1400.0
        )
        cfg = ExperimentConfig(profile=profile, seed=7, tail_s=30.0)
        system = ManagedSystem(cfg)
        system.run()
        assert system.db_tier.grows_completed >= 1
        assert system.db_tier.shrinks_completed >= 1
        assert system.db_tier.replica_count == 1
        # All previously-grown nodes returned to the free pool.
        assert system.cluster.free_count == 3


class TestDeterminism:
    def test_same_seed_reproduces_run(self):
        def run_once():
            cfg = ExperimentConfig(profile=ConstantProfile(60, 200.0), seed=42)
            system = ManagedSystem(cfg)
            col = system.run()
            return (
                col.completed_requests,
                round(col.latencies.values.sum(), 9),
                system.kernel.events_processed,
            )

        assert run_once() == run_once()

    def test_different_seed_differs(self):
        def run_once(seed):
            cfg = ExperimentConfig(profile=ConstantProfile(60, 200.0), seed=seed)
            return ManagedSystem(cfg).run().latencies.values.sum()

        assert run_once(1) != run_once(2)

    def test_paused_system_pickles_and_resumes(self):
        """A managed ramp paused mid-run pickles (no live generator or
        closure), and the copy finishes with the uninterrupted run's
        outputs."""

        def build():
            scale = 0.1
            profile = RampProfile(
                warmup_s=300.0 * scale,
                step_period_s=60.0 * scale,
                cooldown_s=300.0 * scale,
            )
            return ManagedSystem(ExperimentConfig(profile=profile, seed=1))

        reference = collector_digest(build().run())
        system = build()
        horizon = system.start_all()
        system.advance(150.0)
        copy = pickle.loads(pickle.dumps(system))
        copy.advance(horizon)
        assert collector_digest(copy.finish()) == reference


class TestIntrusivity:
    """Table 1's protocol: medium load with and without Jade."""

    def test_jade_memory_overhead_visible_cpu_overhead_negligible(self):
        def run_once(managed):
            cfg = ExperimentConfig(
                profile=ConstantProfile(80, 300.0), seed=9, managed=managed
            )
            system = ManagedSystem(cfg)
            system.run()
            return system.summary()

        with_jade = run_once(True)
        without = run_once(False)
        # Throughput unchanged.
        assert with_jade["throughput_rps"] == pytest.approx(
            without["throughput_rps"], rel=0.05
        )
        # Memory: higher with Jade (management components on every node).
        assert with_jade["node_mem_mean"] > without["node_mem_mean"]
        # CPU: no perceptible overhead (< 1 percentage point).
        assert abs(with_jade["node_cpu_mean"] - without["node_cpu_mean"]) < 0.01


class TestStaticSaturation:
    """Without Jade, a heavy load saturates the 1+1 deployment (Fig. 8)."""

    def test_latency_explodes_without_jade(self):
        profile = PiecewiseProfile([(0.0, 450)], duration_s=600.0)
        cfg = ExperimentConfig(profile=profile, seed=8, managed=False, tail_s=30.0)
        system = ManagedSystem(cfg)
        col = system.run()
        late = col.latencies.window(400.0, 600.0)
        assert late.mean() > 5.0  # seconds — catastrophic for a web page

    def test_db_cpu_saturates(self):
        profile = PiecewiseProfile([(0.0, 450)], duration_s=600.0)
        cfg = ExperimentConfig(profile=profile, seed=8, managed=False, tail_s=30.0)
        system = ManagedSystem(cfg)
        col = system.run()
        tail = col.tier_cpu["database"].window(400.0, 600.0)
        assert tail.mean() > 0.95
