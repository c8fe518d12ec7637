"""Tests for ManagedSystem configuration knobs."""

import pytest

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile


class TestConfigKnobs:
    def test_pool_size_controls_headroom(self):
        cfg = ExperimentConfig(
            profile=ConstantProfile(10, 30.0), pool_nodes=5, sample_nodes=False
        )
        system = ManagedSystem(cfg)
        # 4 nodes taken by the initial deployment.
        assert system.cluster.free_count == 1

    @pytest.mark.parametrize(
        "knobs",
        [
            {"fluid_threshold": 300},
            {"fluid_tick_s": 2.0},
            {"fluid_tick_s": 0.0},
            {"fluid_tick_s": -1.0, "fluid": True},
        ],
    )
    def test_bad_fluid_knobs_rejected_at_construction(self, knobs):
        with pytest.raises(ValueError, match="fluid"):
            ExperimentConfig(**knobs)

    def test_fluid_knobs_accepted_with_fluid(self):
        cfg = ExperimentConfig(fluid=True, fluid_threshold=300, fluid_tick_s=2.0)
        assert cfg.fluid_threshold == 300

    def test_minimum_pool_rejected(self):
        cfg = ExperimentConfig(profile=ConstantProfile(10, 30.0), pool_nodes=3)
        from repro.cluster import NoFreeNodeError

        with pytest.raises(NoFreeNodeError):
            ManagedSystem(cfg)

    def test_thrashing_disabled(self):
        cfg = ExperimentConfig(
            profile=ConstantProfile(10, 30.0), thrashing=False, sample_nodes=False
        )
        system = ManagedSystem(cfg)
        assert system.nodes[0].cpu.capacity_model(10_000) == 1.0

    def test_thrashing_enabled_by_default(self):
        cfg = ExperimentConfig(profile=ConstantProfile(10, 30.0), sample_nodes=False)
        system = ManagedSystem(cfg)
        assert system.nodes[0].cpu.capacity_model(10_000) < 1.0

    def test_sampling_disabled(self):
        cfg = ExperimentConfig(profile=ConstantProfile(10, 60.0), sample_nodes=False)
        system = ManagedSystem(cfg)
        system.run()
        assert len(system.collector.node_cpu) == 0

    def test_unmanaged_has_no_optimizer_but_records_tier_cpu(self):
        cfg = ExperimentConfig(profile=ConstantProfile(10, 60.0), managed=False)
        system = ManagedSystem(cfg)
        system.run()
        assert system.optimizer is None
        assert len(system.collector.tier_cpu["database"]) > 50

    def test_jade_memory_only_when_managed(self):
        managed = ManagedSystem(
            ExperimentConfig(profile=ConstantProfile(10, 30.0), managed=True)
        )
        unmanaged = ManagedSystem(
            ExperimentConfig(profile=ConstantProfile(10, 30.0), managed=False)
        )
        assert "jade:mgmt" in managed.nodes[0].footprints
        assert "jade:mgmt" not in unmanaged.nodes[0].footprints

    def test_custom_duration_run(self):
        cfg = ExperimentConfig(profile=ConstantProfile(10, 500.0), tail_s=0.0)
        system = ManagedSystem(cfg)
        system.run(duration_s=50.0)
        assert system.kernel.now == pytest.approx(50.0)

    def test_client_timeout_plumbed(self):
        cfg = ExperimentConfig(
            profile=ConstantProfile(5, 30.0), client_timeout_s=3.0
        )
        system = ManagedSystem(cfg)
        assert system.emulator.request_timeout_s == 3.0

    def test_involved_nodes_tracks_tier_growth(self):
        cfg = ExperimentConfig(profile=ConstantProfile(5, 30.0), sample_nodes=False)
        system = ManagedSystem(cfg)
        before = len(system.involved_nodes())
        system.app_tier.grow()
        system.kernel.run(until=60.0)
        assert len(system.involved_nodes()) == before + 1

    def test_entry_routes_through_plb(self):
        cfg = ExperimentConfig(profile=ConstantProfile(5, 30.0), sample_nodes=False)
        system = ManagedSystem(cfg)
        from repro.legacy import WebRequest

        req = WebRequest(
            system.kernel, "ViewItem", app_demand_pre=0.01, db_demand=0.02
        )
        system.entry(req)
        system.kernel.run()
        assert req.latency is not None
        assert req.hops[0] == "plb"

    def test_summary_keys_stable(self):
        cfg = ExperimentConfig(profile=ConstantProfile(5, 60.0))
        system = ManagedSystem(cfg)
        system.run()
        assert set(system.summary()) == {
            "completed",
            "failed",
            "throughput_rps",
            "latency_mean_ms",
            "latency_p95_ms",
            "app_replicas_max",
            "db_replicas_max",
            "node_cpu_mean",
            "node_mem_mean",
        }

    def test_node_speed_scales_capacity(self):
        slow = ManagedSystem(
            ExperimentConfig(
                profile=ConstantProfile(80, 200.0), node_speed=1.0, seed=3
            )
        )
        fast = ManagedSystem(
            ExperimentConfig(
                profile=ConstantProfile(80, 200.0), node_speed=2.0, seed=3
            )
        )
        slow.run()
        fast.run()
        # Same offered load, double the hardware: roughly half the CPU.
        ratio = fast.summary()["node_cpu_mean"] / slow.summary()["node_cpu_mean"]
        assert 0.35 < ratio < 0.7
