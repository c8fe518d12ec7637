"""Tests for the self-recovery manager (failure detection + repair)."""

from types import SimpleNamespace

from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.workload.profiles import ConstantProfile


def make_system(**kwargs):
    cfg = ExperimentConfig(
        profile=ConstantProfile(20, kwargs.pop("duration", 600.0)),
        managed=False,
        recovery=True,
        sample_nodes=False,
        **kwargs,
    )
    return ManagedSystem(cfg)


class TestSelfRecovery:
    def test_app_replica_crash_is_repaired(self):
        system = make_system()
        kernel = system.kernel
        system.managers.start()
        system.emulator.start()
        victim_node = system.app_tier.replicas[0].node
        kernel.schedule(100.0, victim_node.crash)
        kernel.run(until=400.0)
        assert system.app_tier.replica_count == 1
        replica = system.app_tier.replicas[0]
        assert replica.node is not victim_node
        assert replica.component.lifecycle_controller.is_started()
        assert system.recovery.failures_seen == 1
        assert system.app_tier.repairs_completed == 1

    def test_requests_flow_again_after_repair(self):
        system = make_system()
        kernel = system.kernel
        system.managers.start()
        system.emulator.start()
        victim_node = system.app_tier.replicas[0].node
        kernel.schedule(100.0, victim_node.crash)
        kernel.run(until=500.0)
        col = system.collector
        # Failures occurred around the crash, but completions resumed.
        late = col.latencies.window(300.0, 500.0)
        assert len(late) > 0
        assert col.failed_requests > 0

    def test_db_replica_crash_repaired_with_consistent_state(self):
        system = make_system()
        kernel = system.kernel
        controller = system.cjdbc.content.controller
        system.managers.start()
        # Grow to 2 DB replicas so the service survives the crash.
        system.db_tier.grow()
        kernel.run(until=60.0)
        system.emulator.start()
        victim_node = system.db_tier.replicas[-1].node
        kernel.schedule(100.0, victim_node.crash)
        kernel.run(until=600.0)
        assert system.db_tier.replica_count == 2
        backends = controller.enabled_backends()
        assert len(backends) == 2
        assert len({b.server.state_digest for b in backends}) == 1

    def test_repair_waits_when_pool_is_empty(self):
        system = make_system(pool_nodes=4)  # exactly the initial deployment
        kernel = system.kernel
        system.managers.start()
        victim_node = system.app_tier.replicas[0].node
        kernel.schedule(50.0, victim_node.crash)
        kernel.run(until=200.0)
        # No free node: replica gone, repair pending.
        assert system.app_tier.replica_count == 0
        assert system.recovery.pending_repairs >= 0  # retried, not crashed
        assert system.app_tier.grow_failures > 0

    def test_retry_repairs_after_pool_frees_up(self):
        # 5 nodes: 4 taken by the initial deployment, 1 free — which the
        # DB grow consumes, so the app repair finds an exhausted pool.
        system = make_system(pool_nodes=5)
        kernel = system.kernel
        system.managers.start()
        system.db_tier.grow()
        kernel.run(until=60.0)
        assert system.cluster.free_count == 0
        victim_node = system.app_tier.replicas[0].node
        kernel.schedule_at(100.0, victim_node.crash)
        kernel.run(until=150.0)
        # Repair started but could not grow: queued for retry.
        assert system.app_tier.replica_count == 0
        assert system.recovery.pending_repairs == 1
        # Shrinking the DB tier frees a node; the periodic retry grows
        # the app replica back without a fresh failure notification.
        system.db_tier.shrink()
        kernel.run(until=400.0)
        assert system.app_tier.replica_count == 1
        assert system.recovery.pending_repairs == 0
        assert system.app_tier.replicas[0].node is not victim_node
        assert system.app_tier.replicas[0].component.lifecycle_controller.is_started()

    def test_simultaneous_failures_detected_in_tier_order(self):
        system = make_system()
        kernel = system.kernel
        system.managers.start()
        system.db_tier.grow()
        kernel.run(until=60.0)
        app_node = system.app_tier.replicas[0].node
        db_node = system.db_tier.replicas[-1].node
        kernel.schedule_at(100.0, app_node.crash)
        kernel.schedule_at(100.0, db_node.crash)
        kernel.run(until=400.0)
        # Both failures are seen in the same detection sweep and both
        # repairs complete; the sweep walks tiers in registration order.
        assert system.recovery.failures_seen == 2
        detections = system.recovery.detections
        assert [d["tier"] for d in detections] == ["application", "database"]
        assert detections[0]["t"] == detections[1]["t"]
        assert system.app_tier.replica_count == 1
        assert system.db_tier.replica_count == 2
        assert system.app_tier.repairs_completed == 1
        assert system.db_tier.repairs_completed == 1

    def test_server_down_through_maintenance_reported_once(self):
        """A failed server whose repair is refused stays in its tier;
        quarantined for maintenance and released still down, it is not
        reported again."""
        system = make_system()
        kernel = system.kernel
        tier = system.app_tier
        tier.arbitration = SimpleNamespace(
            request=lambda op, tier_name: False, complete=lambda op, tier_name: None
        )
        system.managers.start()
        record = tier.replicas[0]
        kernel.schedule_at(50.0, record.node.crash)
        kernel.schedule_at(60.0, tier.enter_maintenance, record.component.name)
        kernel.schedule_at(70.0, tier.leave_maintenance, record.component.name)
        kernel.run(until=100.0)
        assert tier.replicas[0] is record
        assert system.recovery.sensor.failures_detected == 1
        assert system.recovery.failures_seen == 1

    def test_repaired_server_is_forgotten(self):
        system = make_system()
        kernel = system.kernel
        system.managers.start()
        kernel.schedule(100.0, system.app_tier.replicas[0].node.crash)
        kernel.run(until=400.0)
        assert system.app_tier.repairs_completed == 1
        assert system.recovery.sensor._reported == set()

    def test_stopped_manager_does_not_repair(self):
        system = make_system()
        kernel = system.kernel
        system.managers.start()
        system.managers.stop()
        victim_node = system.app_tier.replicas[0].node
        kernel.schedule(50.0, victim_node.crash)
        kernel.run(until=300.0)
        assert system.app_tier.replica_count == 1  # record still listed
        assert system.recovery.failures_seen == 0

    def test_manager_is_a_component(self):
        system = make_system()
        (comp,) = system.managers.composite.content_controller.sub_components()
        assert comp.is_composite()
        names = [c.name for c in comp.content_controller.sub_components()]
        assert names == ["recovery-sensor", "recovery-reactor"]
        reactor = system.managers.app.instance("recovery-reactor")
        assert system.recovery is reactor.content
        assert system.recovery.sensor is not None
        assert system.recovery.detector is None
