"""Tests for deploying the administration software itself via ADL (§3.3:
"Jade administrates itself").  Every managed run deploys its optimizer
this way, through the same deployment service as the application."""

import pytest

from repro.fractal.introspection import architecture_report, verify_architecture
from repro.jade.control_loop import InhibitionLock
from repro.jade.deployment import DeploymentService
from repro.jade.self_optimization import (
    APP_LOOP_DEFAULTS,
    DB_LOOP_DEFAULTS,
    ManagerDeployment,
    manager_adl,
)
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import PiecewiseProfile


@pytest.fixture
def base_system():
    """A managed J2EE application WITHOUT its optimizer — the manager will
    be deployed separately, from its own ADL document."""
    profile = PiecewiseProfile([(0.0, 80), (60.0, 300)], duration_s=900.0)
    return ManagedSystem(
        ExperimentConfig(profile=profile, seed=13, managed=False, tail_s=30.0)
    )


def paper_adl(system) -> str:
    """The document a default managed run deploys."""
    return manager_adl(ExperimentConfig(), "application", "database")


def deploy_manager(system, adl=None) -> ManagerDeployment:
    return ManagerDeployment(
        system.deployer,
        paper_adl(system) if adl is None else adl,
        (system.app_tier, system.db_tier),
        InhibitionLock(system.kernel, 60.0),
    )


class TestManagerDeployment:
    def test_structure(self, base_system):
        manager = deploy_manager(base_system)
        loops = manager.composite.content_controller.sub_components()
        assert [c.name for c in loops] == ["resize-app", "resize-db"]
        names = sorted(
            c.name for loop in loops for c in loop.content_controller.sub_components()
        )
        assert names == [
            "resize-app-actuator",
            "resize-app-reactor",
            "resize-app-sensor",
            "resize-db-actuator",
            "resize-db-reactor",
            "resize-db-sensor",
        ]
        assert [loop.reactor.name for loop in manager.loops.values()] == [
            "resize-app",
            "resize-db",
        ]
        assert [loop.probe.name for loop in manager.loops.values()] == [
            "probe-app",
            "probe-db",
        ]
        assert verify_architecture(manager.composite) == []

    def test_manager_takes_no_pool_node(self):
        managed = ManagedSystem(ExperimentConfig())
        unmanaged = ManagedSystem(ExperimentConfig(managed=False))
        assert managed.cluster.free_count == unmanaged.cluster.free_count
        assert managed.optimizer.app.nodes == {}

    def test_bindings_visible(self, base_system):
        manager = deploy_manager(base_system)
        report = architecture_report(manager.composite)
        assert "notify -> resize-db-reactor.readings" in report
        assert "actuate -> resize-db-actuator.resize" in report

    def test_unknown_tier_rejected(self, base_system):
        bad = paper_adl(base_system).replace(
            '<attribute name="tier" value="database"/>',
            '<attribute name="tier" value="storage"/>',
        )
        with pytest.raises(ValueError, match="unknown tier 'storage'"):
            deploy_manager(base_system, bad)

    def test_floats_parse_back_to_the_same_doubles(self, base_system):
        manager = deploy_manager(base_system)
        for loop, cfg in zip(
            manager.loops.values(), (APP_LOOP_DEFAULTS, DB_LOOP_DEFAULTS)
        ):
            policy = loop.reactor.policy
            assert (policy.max_threshold, policy.min_threshold) == (
                cfg.max_threshold,
                cfg.min_threshold,
            )
            assert loop.probe.window.window_s == cfg.window_s

    def test_managed_run_deploys_its_optimizer(self, monkeypatch):
        deployed = []
        deploy = DeploymentService.deploy

        def recording(self, description, **context):
            app = deploy(self, description, **context)
            deployed.append((self, description.name, app))
            return app

        monkeypatch.setattr(DeploymentService, "deploy", recording)
        system = ManagedSystem(ExperimentConfig())
        assert [(d, name) for d, name, _ in deployed] == [
            (system.deployer, "rubis-j2ee"),
            (system.deployer, "jade-managers"),
        ]
        manager = deployed[1][2]
        assert system.optimizer.composite is manager.root
        for loop in system.optimizer.loops.values():
            for part in loop.composite.content_controller.sub_components():
                assert manager.components[part.name] == [part]


class TestManagerBehaviour:
    def test_adl_deployed_manager_scales_the_system(self, base_system):
        manager = deploy_manager(base_system)
        manager.start()
        col = base_system.run()
        manager.stop()
        # The DB tier scaled under the 300-client step, driven purely by
        # components instantiated from the ADL document.
        assert base_system.db_tier.grows_completed >= 1
        assert col.tier_replicas["database"].max() >= 2

    def test_stopped_manager_is_inert(self, base_system):
        deploy_manager(base_system)  # never started
        base_system.run()
        assert base_system.db_tier.grows_completed == 0


class TestFinalizeErrors:
    def test_unbound_actuate_rejected(self, base_system):
        bad = paper_adl(base_system).replace(
            '<binding client="resize-db-reactor.actuate" '
            'server="resize-db-actuator.resize"/>',
            "",
        )
        assert bad != paper_adl(base_system)
        with pytest.raises(ValueError, match="actuate is unbound"):
            deploy_manager(base_system, bad)

    def test_unfed_reactor_rejected(self, base_system):
        bad = paper_adl(base_system).replace(
            '<binding client="resize-db-sensor.notify" '
            'server="resize-db-reactor.readings"/>',
            '<binding client="resize-db-sensor.notify" '
            'server="resize-app-reactor.readings"/>',
        )
        assert bad != paper_adl(base_system)
        with pytest.raises(ValueError, match="no sensor feeds"):
            deploy_manager(base_system, bad)
