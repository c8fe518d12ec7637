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

    def test_slo_manager_without_managed_rejected(self):
        with pytest.raises(ValueError, match="use_slo_manager requires managed"):
            ExperimentConfig(use_slo_manager=True, managed=False)

    def test_proactive_config_without_proactive_rejected(self):
        from repro.capacity.proactive import ProactiveConfig

        with pytest.raises(ValueError, match="proactive_config requires proactive"):
            ExperimentConfig(proactive_config=ProactiveConfig())

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


class TestExtensionSeam:
    """Every optional subsystem is started, stopped, traced and distilled
    through ``ManagedSystem.extensions``."""

    @pytest.fixture(scope="class")
    def composed(self):
        import dataclasses

        from repro.chaos import PRESETS as CHAOS
        from repro.deploy import PRESETS as DEPLOY
        from repro.market.scenario import PRESETS as MARKET
        from repro.runner.results import CompletedRun

        cfg = ExperimentConfig(
            profile=ConstantProfile(20, 30.0),
            tail_s=5.0,
            recovery=True,
            chaos=dataclasses.replace(CHAOS["crash"](), detector="phi"),
            deploy=DEPLOY["bad-push"](),
            market=MARKET["spot-heavy"](),
            proactive=True,
            trace=True,
        )
        system = ManagedSystem(cfg)
        system.run()
        return system, CompletedRun.from_system(system, 0.0)

    def test_extensions_in_start_order(self, composed):
        system, _ = composed
        assert [ext.name for ext in system.extensions] == [
            "optimizer",
            "recovery",
            "proactive",
            "chaos",
            "deploy",
            "market",
        ]

    def test_every_extension_received_the_tracer(self, composed):
        system, _ = composed
        tracer = system.tracer
        assert tracer is not None
        assert system.inhibition.tracer is tracer
        for loop in system.optimizer.loops.values():
            assert loop.probe.tracer is tracer
            assert loop.reactor.tracer is tracer
        assert system.recovery.detector.tracer is tracer
        for ext in system.extensions[1:]:
            assert ext.tracer is tracer
        assert system.market.market.tracer is tracer  # handed over at start

    def test_managers_share_one_inhibition_lock(self, composed):
        system, _ = composed
        lock = system.inhibition
        assert system.optimizer.inhibition is lock
        assert system.proactive.inhibition is lock
        assert system.deploy.inhibition is lock

    def test_completed_run_carries_distilled_stats(self, composed):
        import pickle

        system, run = composed
        assert list(run.extensions) == ["proactive", "chaos", "deploy", "market"]
        clone = pickle.loads(pickle.dumps(run))
        # repr, not ==: unfinished deploy timestamps are NaN
        assert repr(clone.extensions) == repr(run.extensions)
        assert clone.summary() == run.summary() == system.summary()

    def test_default_system_imports_no_extension_package(self):
        import ast
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys\n"
            "from repro.jade.system import ExperimentConfig, ManagedSystem\n"
            "ManagedSystem(ExperimentConfig())\n"
            "print(sorted({m.split('.')[1] for m in sys.modules"
            " if m.startswith('repro.')}))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            timeout=120,
        ).stdout
        loaded = set(ast.literal_eval(out))
        assert loaded.isdisjoint(
            {"chaos", "deploy", "market", "capacity", "runner"}
        ), loaded


class TestIdealCapacity:
    """``thrashing=False`` gives worker nodes the named ideal capacity
    model: picklable, and a knee the PS-CPU and fluid fast paths see."""

    # Collector digests of the thrashing-free scale-0.1 managed ramp
    # (seed 1), recorded while the model was an opaque ``lambda n: 1.0``.
    GOLDEN = {
        False: "a7f276e309e8bdc01c97c688cbf2140f4e6f2526ecb53364df8689e6a361d5d6",
        True: "aee82f2a397eea19ad9275678c1899f2e2abc41bc728cc0e8d1e85ad9a0a1383",
    }

    @staticmethod
    def config(fluid: bool = False) -> ExperimentConfig:
        from repro.workload.profiles import RampProfile

        scale = 0.1
        return ExperimentConfig(
            profile=RampProfile(
                warmup_s=300.0 * scale,
                step_period_s=60.0 * scale,
                cooldown_s=300.0 * scale,
            ),
            seed=1,
            managed=True,
            thrashing=False,
            fluid=fluid,
        )

    def test_capacity_model_is_named_and_pickles(self):
        import pickle

        from repro.simulation.resources import capacity_knee, constant_capacity

        system = ManagedSystem(self.config())
        model = system.nodes[0].cpu.capacity_model
        assert model is constant_capacity
        assert pickle.loads(pickle.dumps(model)) is constant_capacity
        assert capacity_knee(model) > 0

    @pytest.mark.parametrize("fluid", [False, True], ids=["discrete", "fluid"])
    def test_outputs_unchanged(self, fluid):
        from tests.conftest import collector_digest

        collector = ManagedSystem(self.config(fluid)).run()
        assert collector_digest(collector) == self.GOLDEN[fluid]
