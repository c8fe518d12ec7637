"""Tests for the TierManager actuator on a real managed system."""

import pytest

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile
from tests.conftest import ignore


@pytest.fixture
def system():
    """A quiescent managed system (managers built but not started)."""
    cfg = ExperimentConfig(
        profile=ConstantProfile(1, 10.0), managed=True, sample_nodes=False
    )
    return ManagedSystem(cfg)


class TestGrow:
    def test_app_grow_adds_replica_behind_plb(self, system):
        assert system.app_tier.grow()
        assert system.app_tier.busy
        system.kernel.run(until=60.0)
        assert not system.app_tier.busy
        assert system.app_tier.replica_count == 2
        assert system.app_tier.grows_completed == 1
        # New replica is wired: component started, PLB knows both workers.
        names = [c.name for c in system.app_tier.components()]
        assert names == ["tomcat", "tomcat2"]
        assert len(system.plb.content.balancer.backend_endpoints) == 2
        assert len(system.plb.binding_controller.bound_instances("workers")) == 2

    def test_db_grow_synchronizes_before_enabling(self, system):
        kernel = system.kernel
        controller = system.cjdbc.content.controller
        # Put some writes in the recovery log first.
        from repro.legacy.requests import WebRequest

        for _ in range(20):
            req = WebRequest(kernel, "StoreBid", is_write=True, db_demand=0.01)
            controller.execute(req, ignore, ignore)
        kernel.run()
        assert controller.log.next_index == 20
        assert system.db_tier.grow()
        kernel.run(until=120.0)
        assert system.db_tier.replica_count == 2
        backends = controller.enabled_backends()
        assert len(backends) == 2
        digests = {b.server.state_digest for b in backends}
        assert len(digests) == 1  # replicas identical after replay

    def test_grow_installs_package(self, system):
        free_before = system.cluster.free_nodes()
        system.app_tier.grow()
        system.kernel.run(until=60.0)
        new_node = system.app_tier.nodes()[-1]
        assert new_node in free_before
        assert system.installer.is_installed("tomcat", new_node)

    def test_grow_busy_guard(self, system):
        assert system.app_tier.grow()
        assert not system.app_tier.grow()

    def test_grow_exhausts_pool(self, system):
        # 7 nodes: 4 taken by the initial deployment, 3 free.
        for _ in range(3):
            assert system.app_tier.grow()
            system.kernel.run(until=system.kernel.now + 60.0)
        assert not system.app_tier.grow()
        assert system.app_tier.grow_failures == 1

    def test_grow_records_metrics(self, system):
        system.app_tier.grow()
        system.kernel.run(until=60.0)
        changes = system.collector.replica_changes("application")
        assert changes[-1][1] == 2
        assert any("grow" in d for _, d in system.collector.reconfigurations)


class TestShrink:
    def test_shrink_reverses_grow(self, system):
        system.app_tier.grow()
        system.kernel.run(until=60.0)
        free_before = system.cluster.free_count
        assert system.app_tier.shrink()
        system.kernel.run(until=120.0)
        assert system.app_tier.replica_count == 1
        assert system.cluster.free_count == free_before + 1
        # PLB no longer routes to the retired worker.
        assert len(system.plb.content.balancer.backend_endpoints) == 1

    def test_shrink_refuses_last_replica(self, system):
        assert not system.app_tier.shrink()

    def test_db_shrink_checkpoints(self, system):
        kernel = system.kernel
        controller = system.cjdbc.content.controller
        system.db_tier.grow()
        kernel.run(until=60.0)
        from repro.legacy.requests import WebRequest

        for _ in range(5):
            controller.execute(
                WebRequest(kernel, "w", is_write=True, db_demand=0.01), ignore, ignore
            )
        kernel.run()
        retired = system.db_tier.replicas[-1].binding_instance
        assert system.db_tier.shrink()
        kernel.run(until=kernel.now + 30.0)
        assert system.db_tier.replica_count == 1
        assert controller.log.checkpoint(retired) == 5

    def test_removed_component_leaves_architecture(self, system):
        system.app_tier.grow()
        system.kernel.run(until=60.0)
        system.app_tier.shrink()
        system.kernel.run(until=120.0)
        names = [
            c.name
            for c in system.app.root.content_controller.sub_components()
        ]
        assert "tomcat2" not in names


class TestRepair:
    def test_repair_replaces_crashed_app_replica(self, system):
        kernel = system.kernel
        system.app_tier.grow()
        kernel.run(until=60.0)
        victim = system.app_tier.replicas[-1]
        victim.node.crash()
        assert system.app_tier.repair(victim.component)
        kernel.run(until=180.0)
        assert system.app_tier.replica_count == 2
        # The crashed node is gone from the pool entirely.
        assert victim.node.name not in [n.name for n in system.cluster.free_nodes()]
        assert system.app_tier.repairs_completed == 1

    def test_repair_db_replica_resyncs_state(self, system):
        kernel = system.kernel
        controller = system.cjdbc.content.controller
        from repro.legacy.requests import WebRequest

        for _ in range(10):
            controller.execute(
                WebRequest(kernel, "w", is_write=True, db_demand=0.01), ignore, ignore
            )
        kernel.run()
        system.db_tier.grow()
        kernel.run(until=120.0)
        victim = system.db_tier.replicas[-1]
        victim.node.crash()
        # The wrapper cleanup happens through repair.
        assert system.db_tier.repair(victim.component)
        kernel.run(until=400.0)
        backends = controller.enabled_backends()
        assert len(backends) == 2
        assert len({b.server.state_digest for b in backends}) == 1

    def test_repair_unknown_component_refused(self, system):
        from repro.fractal.component import Component

        assert not system.app_tier.repair(Component("ghost"))
