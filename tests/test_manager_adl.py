"""Tests for deploying the administration software itself via ADL (§3.3:
"Jade administrates itself")."""

import pytest

from repro.fractal.adl import parse_adl
from repro.fractal.introspection import architecture_report, verify_architecture
from repro.jade.control_loop import InhibitionLock
from repro.jade.deployment import DeploymentService
from repro.jade.manager_adl import (
    SELF_OPTIMIZATION_ADL,
    finalize_manager,
    management_factory_registry,
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


def deploy_manager(system):
    inhibition = InhibitionLock(system.kernel, 60.0)
    deployer = DeploymentService(
        system.kernel,
        management_factory_registry(),
        system.cluster,
        system.directory,
        installer=None,
        lan=system.lan,
        extra_context={
            "tiers": {
                "application": system.app_tier,
                "database": system.db_tier,
            },
            "inhibition": inhibition,
            "calibration": system.config.calibration,
        },
    )
    manager = deployer.deploy(parse_adl(SELF_OPTIMIZATION_ADL))
    finalize_manager(manager)
    return manager


class TestManagerDeployment:
    def test_structure(self, base_system):
        manager = deploy_manager(base_system)
        names = sorted(c.name for c in manager.root.content_controller.sub_components())
        assert names == [
            "app-actuator",
            "app-reactor",
            "app-sensor",
            "db-actuator",
            "db-reactor",
            "db-sensor",
        ]
        assert verify_architecture(manager.root) == []

    def test_all_on_one_jade_node(self, base_system):
        manager = deploy_manager(base_system)
        nodes = {n.name for n in manager.nodes.values()}
        assert len(nodes) == 1  # the virtual-node pinned everything together

    def test_bindings_visible(self, base_system):
        manager = deploy_manager(base_system)
        report = architecture_report(manager.root)
        assert "notify -> db-reactor.readings" in report
        assert "actuate -> db-actuator.resize" in report

    def test_unknown_tier_rejected(self, base_system):
        bad = SELF_OPTIMIZATION_ADL.replace(
            '<attribute name="tier" value="database"/>',
            '<attribute name="tier" value="storage"/>',
        )
        deployer = DeploymentService(
            base_system.kernel,
            management_factory_registry(),
            base_system.cluster,
            base_system.directory,
            extra_context={
                "tiers": {"application": base_system.app_tier},
                "inhibition": InhibitionLock(base_system.kernel, 60.0),
            },
        )
        with pytest.raises(ValueError):
            deployer.deploy(parse_adl(bad))


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
        manager = deploy_manager(base_system)  # never started
        base_system.run()
        assert base_system.db_tier.grows_completed == 0


class TestFinalizeErrors:
    def test_unbound_actuate_rejected(self, base_system):
        bad = SELF_OPTIMIZATION_ADL.replace(
            '<binding client="db-reactor.actuate" server="db-actuator.resize"/>',
            "",
        )
        deployer = DeploymentService(
            base_system.kernel,
            management_factory_registry(),
            base_system.cluster,
            base_system.directory,
            extra_context={
                "tiers": {
                    "application": base_system.app_tier,
                    "database": base_system.db_tier,
                },
                "inhibition": InhibitionLock(base_system.kernel, 60.0),
            },
        )
        manager = deployer.deploy(parse_adl(bad))
        with pytest.raises(ValueError):
            finalize_manager(manager)

    def test_unfed_reactor_rejected(self, base_system):
        bad = SELF_OPTIMIZATION_ADL.replace(
            '<binding client="db-sensor.notify" server="db-reactor.readings"/>',
            '<binding client="db-sensor.notify" server="app-reactor.readings"/>',
        )
        deployer = DeploymentService(
            base_system.kernel,
            management_factory_registry(),
            base_system.cluster,
            base_system.directory,
            extra_context={
                "tiers": {
                    "application": base_system.app_tier,
                    "database": base_system.db_tier,
                },
                "inhibition": InhibitionLock(base_system.kernel, 60.0),
            },
        )
        manager = deployer.deploy(parse_adl(bad))
        with pytest.raises(ValueError):
            finalize_manager(manager)
