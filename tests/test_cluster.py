"""Unit tests for the cluster substrate: nodes, filesystem, allocator,
installer, LAN."""

import pytest

from repro.cluster.allocator import ClusterManager, NoFreeNodeError
from repro.cluster.filesystem import FileNotFound, NodeFilesystem
from repro.cluster.installer import Package, SoftwareInstallationService
from repro.cluster.network import Lan
from repro.cluster.node import Node, NodeDown, NodeIsolated, make_nodes
from tests.conftest import Job


class TestFilesystem:
    def test_write_read_roundtrip(self):
        fs = NodeFilesystem()
        fs.write("/etc/app.conf", "key=value\n")
        assert fs.read("/etc/app.conf") == "key=value\n"

    def test_read_missing_raises(self):
        with pytest.raises(FileNotFound):
            NodeFilesystem().read("/nope")

    def test_overwrite(self):
        fs = NodeFilesystem()
        fs.write("/a", "1")
        fs.write("/a", "2")
        assert fs.read("/a") == "2"

    def test_exists_and_delete(self):
        fs = NodeFilesystem()
        fs.write("/a", "x")
        assert fs.exists("/a")
        fs.delete("/a")
        assert not fs.exists("/a")
        with pytest.raises(FileNotFound):
            fs.delete("/a")

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            NodeFilesystem().write("etc/app.conf", "x")

    def test_path_normalization(self):
        fs = NodeFilesystem()
        fs.write("//etc///app.conf", "x")
        assert fs.read("/etc/app.conf") == "x"


class TestNode:
    def test_run_job_consumes_cpu(self, kernel):
        node = Node(kernel, "n1")
        job = Job(kernel, 2.0)
        job.run_on(node)
        kernel.run()
        assert job.completed_at == pytest.approx(2.0)

    def test_run_job_on_down_node_raises(self, kernel):
        node = Node(kernel, "n1")
        node.crash()
        with pytest.raises(NodeDown):
            node.run_job(1.0)

    def test_memory_baseline(self, kernel):
        node = Node(kernel, "n1", memory_mb=1000.0, base_os_mb=100.0)
        assert node.memory_used_mb() == pytest.approx(100.0)
        assert node.memory_utilization() == pytest.approx(0.1)

    def test_memory_footprints(self, kernel):
        node = Node(kernel, "n1", memory_mb=1000.0, base_os_mb=100.0)
        node.register_footprint("srv:db", 80.0)
        node.register_footprint("jade", 20.0)
        assert node.memory_used_mb() == pytest.approx(200.0)
        node.unregister_footprint("jade")
        assert node.memory_used_mb() == pytest.approx(180.0)

    def test_memory_includes_active_jobs(self, kernel):
        node = Node(kernel, "n1", memory_mb=1000.0, base_os_mb=0.0, per_job_mb=10.0)
        node.run_job(5.0)
        node.run_job(5.0)
        assert node.memory_used_mb() == pytest.approx(20.0)

    def test_memory_capped_at_total(self, kernel):
        node = Node(kernel, "n1", memory_mb=100.0, base_os_mb=90.0)
        node.register_footprint("big", 500.0)
        assert node.memory_used_mb() == 100.0

    def test_negative_footprint_rejected(self, kernel):
        node = Node(kernel, "n1")
        with pytest.raises(ValueError):
            node.register_footprint("x", -1.0)

    def test_crash_aborts_jobs_and_notifies(self, kernel):
        node = Node(kernel, "n1")
        errors = []
        node.run_job(10.0, then=lambda: None, fail=errors.append)
        crashed = []
        node.on_crash(crashed.append)
        kernel.schedule(1.0, node.crash)
        kernel.run()
        assert isinstance(errors[0], NodeDown)
        assert crashed == [node]

    def test_crash_idempotent(self, kernel):
        node = Node(kernel, "n1")
        hits = []
        node.on_crash(hits.append)
        node.crash()
        node.crash()
        assert len(hits) == 1

    def test_healthy_submit_is_the_cpus(self, kernel):
        node = Node(kernel, "n1")
        assert node.submit == node.cpu.submit
        node.submit(2.0)
        assert node.cpu.active_jobs == 1

    def test_crashed_submit_refuses(self, kernel):
        node = Node(kernel, "n1")
        node.crash()
        assert node.submit == node.run_job
        with pytest.raises(NodeDown):
            node.submit(1.0)
        job = Job(kernel, 1.0)
        node.submit(job.demand, 1, job._done, job._failed)
        assert job.error is None  # posted, not called inline
        kernel.run()
        assert isinstance(job.error, NodeDown) and job.completed_at is None
        assert node.cpu.active_jobs == 0

    def test_isolated_submit_fails_continuation(self, kernel):
        node = Node(kernel, "n1")
        node.isolate()
        assert node.submit == node.run_job
        job = Job(kernel, 1.0)
        node.submit(job.demand, 1, job._done, job._failed)
        node.submit(1.0)  # busy time nobody waits on: dropped silently
        kernel.run()
        assert isinstance(job.error, NodeIsolated)
        assert node.cpu.active_jobs == 0

    def test_heal_restores_direct_submit(self, kernel):
        node = Node(kernel, "n1")
        node.isolate()
        node.heal()
        assert node.submit == node.cpu.submit
        job = Job(kernel, 2.0)
        node.submit(job.demand, 1, job._done, job._failed)
        kernel.run()
        assert job.completed_at == pytest.approx(2.0)

    def test_heal_on_crashed_node_keeps_refusing(self, kernel):
        node = Node(kernel, "n1")
        node.isolate()
        node.crash()
        node.heal()
        assert node.submit == node.run_job
        with pytest.raises(NodeDown):
            node.submit(1.0)

    def test_make_nodes_names(self, kernel):
        nodes = make_nodes(kernel, 3, prefix="srv")
        assert [n.name for n in nodes] == ["srv1", "srv2", "srv3"]


class TestClusterManager:
    def test_allocate_release_cycle(self, kernel):
        nodes = make_nodes(kernel, 3)
        cm = ClusterManager(nodes)
        n = cm.allocate("tier:db")
        assert cm.free_count == 2
        assert cm.owner_of(n) == "tier:db"
        cm.release(n)
        assert cm.free_count == 3
        assert cm.owner_of(n) is None

    def test_allocation_is_fifo(self, kernel):
        nodes = make_nodes(kernel, 3)
        cm = ClusterManager(nodes)
        assert cm.allocate("a").name == "node1"
        assert cm.allocate("b").name == "node2"

    def test_released_node_goes_to_back_of_pool(self, kernel):
        nodes = make_nodes(kernel, 2)
        cm = ClusterManager(nodes)
        first = cm.allocate("a")
        cm.release(first)
        assert cm.allocate("b").name == "node2"

    def test_exhaustion_raises(self, kernel):
        cm = ClusterManager(make_nodes(kernel, 1))
        cm.allocate("a")
        with pytest.raises(NoFreeNodeError):
            cm.allocate("b")

    def test_predicate_filters(self, kernel):
        nodes = make_nodes(kernel, 3)
        cm = ClusterManager(nodes)
        n = cm.allocate("a", predicate=lambda n: n.name == "node3")
        assert n.name == "node3"

    def test_crashed_nodes_not_allocated(self, kernel):
        nodes = make_nodes(kernel, 2)
        nodes[0].crash()
        cm = ClusterManager(nodes)
        assert cm.allocate("a").name == "node2"
        with pytest.raises(NoFreeNodeError):
            cm.allocate("b")

    def test_double_release_rejected(self, kernel):
        cm = ClusterManager(make_nodes(kernel, 1))
        n = cm.allocate("a")
        cm.release(n)
        with pytest.raises(ValueError):
            cm.release(n)

    def test_discard_removes_node(self, kernel):
        nodes = make_nodes(kernel, 2)
        cm = ClusterManager(nodes)
        n = cm.allocate("a")
        cm.discard(n)
        assert cm.allocated_count == 0
        assert cm.free_count == 1

    def test_duplicate_names_rejected(self, kernel):
        a = Node(kernel, "same")
        b = Node(kernel, "same")
        with pytest.raises(ValueError):
            ClusterManager([a, b])

    def test_counters(self, kernel):
        cm = ClusterManager(make_nodes(kernel, 2))
        n = cm.allocate("a")
        cm.release(n)
        cm.allocate("b")
        assert cm.allocations_total == 2
        assert cm.releases_total == 1

    def test_predicate_mismatch_reports_pool_state(self, kernel):
        # A non-matching predicate over a non-empty pool must say so:
        # the free count and the predicate's presence belong in the error.
        cm = ClusterManager(make_nodes(kernel, 3))
        cm.allocate("held")
        with pytest.raises(NoFreeNodeError) as exc:
            cm.allocate("tier:db", predicate=lambda n: n.name == "nope")
        message = str(exc.value)
        assert "'tier:db'" in message
        assert "free=2" in message
        assert "allocated=1" in message
        assert "predicate=yes" in message

    def test_exhaustion_message_without_predicate(self, kernel):
        cm = ClusterManager(make_nodes(kernel, 1))
        cm.allocate("a")
        with pytest.raises(NoFreeNodeError) as exc:
            cm.allocate("b")
        message = str(exc.value)
        assert "free=0" in message
        assert "predicate=no" in message

    def test_release_of_unallocated_node_rejected(self, kernel):
        nodes = make_nodes(kernel, 2)
        cm = ClusterManager(nodes)
        # never allocated: releasing it is a caller bug, not a no-op
        with pytest.raises(ValueError):
            cm.release(nodes[1])

    def test_fifo_stable_after_interleaved_churn(self, kernel):
        nodes = make_nodes(kernel, 4)
        cm = ClusterManager(nodes)
        a = cm.allocate("a")  # node1
        b = cm.allocate("b")  # node2
        cm.release(a)         # free: node3, node4, node1
        c = cm.allocate("c")  # node3
        cm.release(b)         # free: node4, node1, node2
        cm.release(c)         # free: node4, node1, node2, node3
        order = [cm.allocate(f"x{i}").name for i in range(4)]
        assert order == ["node4", "node1", "node2", "node3"]

    def test_node_seconds_by_owner(self, kernel):
        nodes = make_nodes(kernel, 3)
        cm = ClusterManager(nodes)
        n = cm.allocate("tier:app")
        kernel.run(until=10.0)
        cm.release(n)
        m = cm.allocate("tier:db")
        kernel.run(until=25.0)
        held = cm.node_seconds_by_owner()
        assert held["tier:app"] == pytest.approx(10.0)
        # still allocated: accrues up to "now"
        assert held["tier:db"] == pytest.approx(15.0)

    def test_node_seconds_accumulates_per_owner(self, kernel):
        nodes = make_nodes(kernel, 2)
        cm = ClusterManager(nodes)
        first = cm.allocate("tier:app")
        kernel.run(until=5.0)
        cm.release(first)
        second = cm.allocate("tier:app")
        kernel.run(until=8.0)
        cm.discard(second)
        assert cm.node_seconds_by_owner()["tier:app"] == pytest.approx(8.0)

    def test_add_node_joins_pool(self, kernel):
        cm = ClusterManager(make_nodes(kernel, 1))
        late = Node(kernel, "late1")
        cm.add_node(late)
        assert cm.free_count == 2
        cm.allocate("a")
        assert cm.allocate("b") is late

    def test_add_node_duplicate_name_rejected(self, kernel):
        nodes = make_nodes(kernel, 1)
        cm = ClusterManager(nodes)
        with pytest.raises(ValueError):
            cm.add_node(Node(kernel, "node1"))


class TestInstaller:
    def make(self, kernel):
        svc = SoftwareInstallationService(kernel, Lan())
        svc.register(
            Package(
                "tomcat",
                "3.3.2",
                size_mb=10.0,
                setup_time_s=2.0,
                files={"bin/catalina.sh": "#!/bin/sh\n"},
                footprint_mb=24.0,
            )
        )
        return svc

    def test_install_writes_files_and_footprint(self, kernel):
        svc = self.make(kernel)
        node = Node(kernel, "n1")
        done = []
        svc.install("tomcat", node).add_callback(lambda s: done.append(s.value))
        kernel.run()
        assert done and done[0].name == "tomcat"
        assert node.fs.exists("/opt/tomcat-3.3.2/.installed")
        assert node.fs.read("/opt/tomcat-3.3.2/bin/catalina.sh").startswith("#!")
        assert node.footprints["pkg:tomcat"] == 24.0
        assert svc.is_installed("tomcat", node)

    def test_install_takes_time(self, kernel):
        svc = self.make(kernel)
        node = Node(kernel, "n1")
        when = []
        svc.install("tomcat", node).add_callback(lambda s: when.append(kernel.now))
        kernel.run()
        # setup 2 s + transfer of 10 MB over 100 Mbps = 0.8 s
        assert when[0] == pytest.approx(2.8, abs=0.05)

    def test_reinstall_skips_transfer(self, kernel):
        svc = self.make(kernel)
        node = Node(kernel, "n1")
        svc.install("tomcat", node)
        kernel.run()
        start = kernel.now
        when = []
        svc.install("tomcat", node).add_callback(lambda s: when.append(kernel.now))
        kernel.run()
        assert when[0] - start == pytest.approx(2.0, abs=0.01)

    def test_install_unknown_package(self, kernel):
        svc = self.make(kernel)
        node = Node(kernel, "n1")
        from repro.cluster.installer import PackageNotFound

        with pytest.raises(PackageNotFound):
            svc.install("nope", node)

    def test_install_on_down_node_fails_signal(self, kernel):
        svc = self.make(kernel)
        node = Node(kernel, "n1")
        node.crash()
        errors = []
        svc.install("tomcat", node).add_callback(lambda s: errors.append(s.error))
        kernel.run()
        assert isinstance(errors[0], NodeDown)

    def test_node_crash_during_install_fails(self, kernel):
        svc = self.make(kernel)
        node = Node(kernel, "n1")
        errors = []
        svc.install("tomcat", node).add_callback(lambda s: errors.append(s.error))
        kernel.schedule(1.0, node.crash)
        kernel.run()
        assert isinstance(errors[0], NodeDown)


class TestLan:
    def test_message_delay_positive(self):
        lan = Lan(latency_s=0.001, bandwidth_mbps=100.0)
        assert lan.message_delay(1.0) > 0.001

    def test_transfer_time_scales_with_size(self):
        lan = Lan(bandwidth_mbps=100.0)
        assert lan.transfer_time(100.0) == pytest.approx(8.0, rel=0.01)

    def test_hop_delay_is_a_1kb_message(self):
        lan = Lan(latency_s=0.001)
        assert lan.hop_delay_s == lan.message_delay(1.0)
        lan.set_extra_latency(0.05)
        assert lan.hop_delay_s == lan.message_delay(1.0)
        lan.set_extra_latency(0.0)
        assert lan.hop_delay_s == Lan(latency_s=0.001).hop_delay_s

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Lan(latency_s=-1)
        with pytest.raises(ValueError):
            Lan(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            Lan().message_delay(-1.0)
