"""Unit/integration tests for the simulated legacy servers."""

import pytest

from repro.cluster.node import Node, make_nodes
from repro.legacy.apache import ApacheServer
from repro.legacy.cjdbc import BackendState, CJdbcController
from repro.legacy.directory import EndpointNotFound
from repro.legacy.l4switch import L4Switch
from repro.legacy.mysql import MySqlServer
from repro.legacy.plb import PlbBalancer
from repro.legacy.requests import RequestFailed, WebRequest
from repro.legacy.server import ServerNotRunning
from repro.legacy.tomcat import parse_jdbc_url
from repro.legacy.configfiles import (
    CjdbcBackend,
    CjdbcXml,
    ConfigError,
    HttpdConf,
    MyCnf,
    PlbConf,
    Worker,
    WorkerProperties,
)
from tests.conftest import ignore


def completed(req, kernel):
    """Drain the kernel; return (ok, error), or (None, None) when the
    request was never answered."""
    kernel.run()
    if req.completed_at is None:
        return None, None
    return req.error is None, req.error


class TestDirectory:
    def test_register_lookup(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        server = MySqlServer(kernel, "db", node, directory)
        server.start()
        assert directory.lookup("n1", 3306) is server

    def test_lookup_missing_raises(self, directory):
        with pytest.raises(EndpointNotFound):
            directory.lookup("ghost", 1)
        assert directory.find(("ghost", 1)) is None

    def test_endpoint_conflict_rejected(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        a = MySqlServer(kernel, "a", node, directory)
        a.start()
        node2 = Node(kernel, "n1b")
        node2.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        b = MySqlServer(kernel, "b", node2, directory)
        # Same host is impossible (different nodes), but registering the
        # same endpoint manually must be refused.
        with pytest.raises(ValueError):
            directory.register("n1", 3306, b)

    def test_stop_releases_endpoint(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        server = MySqlServer(kernel, "db", node, directory)
        server.start()
        server.stop()
        assert directory.find(("n1", 3306)) is None


class TestLegacyServerLifecycle:
    def test_start_requires_config(self, kernel, directory):
        node = Node(kernel, "n1")
        server = MySqlServer(kernel, "db", node, directory)
        with pytest.raises(KeyError):
            server.start()

    def test_start_on_down_node_rejected(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        node.crash()
        with pytest.raises(ServerNotRunning):
            MySqlServer(kernel, "db", node, directory).start()

    def test_start_registers_memory_footprint(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        server = MySqlServer(kernel, "db", node, directory)
        base = node.memory_used_mb()
        server.start()
        assert node.memory_used_mb() == base + MySqlServer.footprint_mb
        server.stop()
        assert node.memory_used_mb() == base

    def test_node_crash_stops_server(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        server = MySqlServer(kernel, "db", node, directory)
        server.start()
        node.crash()
        assert not server.running
        assert directory.find(("n1", 3306)) is None

    def test_malformed_config_rejected(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, "[mysqld]\nport\n")
        with pytest.raises(ConfigError):
            MySqlServer(kernel, "db", node, directory).start()


class TestMySql:
    def make(self, kernel, directory):
        node = Node(kernel, "n1")
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        server = MySqlServer(kernel, "db", node, directory)
        server.start()
        return server

    def test_read_consumes_demand(self, kernel, directory):
        db = self.make(kernel, directory)
        when = []
        db.execute_read(0.5, 1, lambda: when.append(kernel.now), ignore)
        kernel.run()
        assert when == [pytest.approx(0.5)]
        assert db.reads_served == 1

    def test_read_on_stopped_server_fails(self, kernel, directory):
        db = self.make(kernel, directory)
        db.stop()
        errors = []
        db.execute_read(0.1, 1, ignore, errors.append)
        kernel.run()
        assert isinstance(errors[0], ServerNotRunning)

    def test_writes_commit_in_index_order(self, kernel, directory):
        from repro.legacy.recovery_log import RecoveryLog

        db = self.make(kernel, directory)
        log = RecoveryLog()
        # Submit out of order: index 1 (short) before index 0 (long).
        e0 = log.append("w0", 1.0)
        e1 = log.append("w1", 0.1)
        order = []
        db.execute_write(e1, lambda: order.append(("w1", kernel.now)), ignore)
        db.execute_write(e0, lambda: order.append(("w0", kernel.now)), ignore)
        kernel.run()
        assert [tag for tag, _ in order] == ["w0", "w1"]
        assert db.applied_index == 2

    def test_duplicate_write_rejected(self, kernel, directory):
        from repro.legacy.recovery_log import RecoveryLog

        db = self.make(kernel, directory)
        log = RecoveryLog()
        entry = log.append("w", 0.01)
        db.execute_write(entry, ignore, ignore)
        kernel.run()
        errors = []
        db.execute_write(entry, ignore, errors.append)
        kernel.run()
        assert errors[0] is not None

    def test_digest_advances_per_write(self, kernel, directory):
        from repro.legacy.recovery_log import RecoveryLog

        db = self.make(kernel, directory)
        log = RecoveryLog()
        digests = [db.state_digest]
        for i in range(3):
            db.execute_write(log.append(f"w{i}", 0.01), ignore, ignore)
            kernel.run()
            digests.append(db.state_digest)
        assert len(set(digests)) == 4

    def test_direct_execute_write_and_read(self, kernel, directory):
        db = self.make(kernel, directory)
        write = WebRequest(kernel, "StoreBid", is_write=True, db_demand=0.1)
        read = WebRequest(kernel, "ViewItem", db_demand=0.1)
        db.execute(write, ignore, ignore)
        db.execute(read, ignore, ignore)
        kernel.run()
        assert db.writes_applied == 1
        assert db.reads_served == 1
        assert db.applied_index == 1


class TestCJdbc:
    def test_reads_balance_over_enabled_backends(self, kernel, lan, directory, stack):
        db2 = stack.add_mysql("mysql2")
        stack.cjdbc.attach_backend("mysql2", db2)
        kernel.run()
        for _ in range(20):
            stack.request(write=False)
        kernel.run()
        assert stack.mysql.reads_served > 0
        assert db2.reads_served > 0

    def test_writes_fan_out_to_all(self, kernel, stack):
        db2 = stack.add_mysql("mysql2")
        stack.cjdbc.attach_backend("mysql2", db2)
        kernel.run()
        for _ in range(5):
            stack.request(write=True)
        kernel.run()
        assert stack.mysql.applied_index == 5
        assert db2.applied_index == 5
        assert stack.mysql.state_digest == db2.state_digest

    def test_attach_replays_log(self, kernel, stack):
        for _ in range(10):
            stack.request(write=True)
        kernel.run()
        assert stack.cjdbc.log.next_index == 10
        db2 = stack.add_mysql("mysql2")
        handle = stack.cjdbc.attach_backend("mysql2", db2)
        assert handle.state is BackendState.SYNCING
        kernel.run()
        assert handle.state is BackendState.ENABLED
        assert db2.applied_index == 10
        assert db2.state_digest == stack.mysql.state_digest
        assert db2.replays_applied == 10
        assert stack.cjdbc.syncs_completed == 1

    def test_writes_during_sync_are_caught_up(self, kernel, stack):
        for _ in range(5):
            stack.request(write=True)
        kernel.run()
        db2 = stack.add_mysql("mysql2")
        handle = stack.cjdbc.attach_backend("mysql2", db2)
        # Issue more writes while the replay is in flight.
        for _ in range(5):
            stack.request(write=True)
        kernel.run()
        assert handle.state is BackendState.ENABLED
        assert db2.applied_index == stack.mysql.applied_index == 10
        assert db2.state_digest == stack.mysql.state_digest

    def test_detach_checkpoints_and_reattach_replays_gap(self, kernel, stack):
        db2 = stack.add_mysql("mysql2")
        stack.cjdbc.attach_backend("mysql2", db2)
        kernel.run()
        for _ in range(3):
            stack.request(write=True)
        kernel.run()
        checkpoint = stack.cjdbc.detach_backend("mysql2")
        assert checkpoint == 3
        assert stack.cjdbc.log.checkpoint("mysql2") == 3
        for _ in range(4):
            stack.request(write=True)
        kernel.run()
        handle = stack.cjdbc.attach_backend("mysql2", db2)
        kernel.run()
        assert handle.state is BackendState.ENABLED
        assert db2.replays_applied == 4  # only the gap
        assert db2.state_digest == stack.mysql.state_digest

    def test_detach_unknown_rejected(self, stack):
        with pytest.raises(KeyError):
            stack.cjdbc.detach_backend("ghost")

    def test_duplicate_attach_rejected(self, kernel, stack):
        db2 = stack.add_mysql("mysql2")
        stack.cjdbc.attach_backend("mysql2", db2)
        with pytest.raises(ValueError):
            stack.cjdbc.attach_backend("mysql2", db2)

    def test_attach_non_mysql_rejected(self, stack):
        with pytest.raises(TypeError):
            stack.cjdbc.attach_backend("bogus", stack.tomcat)

    def test_no_enabled_backend_fails_reads(self, kernel, stack):
        stack.cjdbc.detach_backend(stack.cjdbc.backends()[0].name)
        req = stack.request(write=False)
        ok, err = completed(req, kernel)
        assert ok is False
        assert isinstance(err, RequestFailed)

    def test_backend_crash_mid_sync_drops_backend(self, kernel, stack):
        for _ in range(50):
            stack.request(write=True)
        kernel.run()
        node = stack.spare_nodes[0]
        db2 = stack.add_mysql("mysql2")
        stack.cjdbc.attach_backend("mysql2", db2)
        kernel.schedule(0.05, node.crash)
        kernel.run()
        assert "mysql2" not in [b.name for b in stack.cjdbc.backends()]

    def test_backend_stopped_mid_sync_drops_backend(self, kernel, stack):
        """A replica stopped mid-sync finishes its in-flight replay, then
        refuses the next one synchronously (no CPU work, no failure
        counted), and C-JDBC drops it.  The dispatched-event count pins
        the instant the refusal reaches the controller."""
        for _ in range(50):
            stack.request(write=True)
        kernel.run()
        db2 = stack.add_mysql("mysql2")
        handle = stack.cjdbc.attach_backend("mysql2", db2)
        kernel.schedule(0.05, db2.stop)
        kernel.run()
        assert "mysql2" not in [b.name for b in stack.cjdbc.backends()]
        assert handle.state is BackendState.DISABLED
        assert handle.sync_replayed == db2.replays_applied == 3
        assert db2.failures == 0
        assert kernel.events_processed + kernel.tail_dispatched == 472

    def test_write_survives_partial_backend_crash(self, kernel, stack):
        db2 = stack.add_mysql("mysql2")
        node2 = db2.node
        stack.cjdbc.attach_backend("mysql2", db2)
        kernel.run()
        # Crash one replica, then write: RAIDb-1 keeps going on survivors.
        node2.crash()
        stack.cjdbc.drop_backend("mysql2")
        req = stack.request(write=True)
        ok, _ = completed(req, kernel)
        assert ok is True

    def test_controller_requires_reachable_config_backends(self, kernel, lan, directory):
        node = Node(kernel, "cj")
        node.fs.write(
            CJdbcController.CONFIG_PATH,
            CjdbcXml(backends=[CjdbcBackend("b", "ghost", 3306)]).render(),
        )
        controller = CJdbcController(kernel, "cjdbc", node, directory, lan)
        with pytest.raises(ServerNotRunning):
            controller.start()


class TestTomcat:
    def test_jdbc_url_parsing(self):
        driver, host, port, db = parse_jdbc_url("jdbc:cjdbc://lb:25322/rubis")
        assert (driver, host, port, db) == ("cjdbc", "lb", 25322, "rubis")
        with pytest.raises(ConfigError):
            parse_jdbc_url("http://not-jdbc")

    def test_serves_request_through_db(self, kernel, stack):
        req = stack.request()
        ok, _ = completed(req, kernel)
        assert ok is True
        assert stack.tomcat.served == 1
        assert stack.cjdbc.served == 1
        assert req.latency > 0.03  # app 12 ms + db 20 ms + hops

    def test_no_db_demand_skips_database(self, kernel, stack):
        req = WebRequest(kernel, "Home", app_demand_pre=0.01, db_demand=0.0)
        stack.tomcat.handle(req)
        ok, _ = completed(req, kernel)
        assert ok is True
        assert stack.cjdbc.served == stack.cjdbc.failures == 0

    def test_zero_demand_hop_is_a_posted_cpu_job(self, kernel, stack):
        # A zero-demand response is an ordinary CPU job: its continuation
        # is posted at the instant it was submitted, not run inside the
        # submitting hop.
        tomcat = stack.tomcat
        respond = tomcat._respond
        submitted = {}

        def spy(request):
            submitted["at"] = kernel.now
            respond(request)
            submitted["done_inside"] = request.completed_at is not None

        tomcat._respond = spy
        req = WebRequest(
            kernel, "Home", app_demand_pre=0.01, app_demand_post=0.0, db_demand=0.0
        )
        tomcat.handle(req)
        ok, _ = completed(req, kernel)
        assert ok is True
        assert submitted["done_inside"] is False
        assert req.completed_at == submitted["at"] > 0.0
        assert stack.n_tc.cpu.completed == 2  # the servlet's job and this one

    def test_negative_demand_raises(self, kernel, stack):
        req = WebRequest(kernel, "Home", app_demand_pre=-0.01, db_demand=0.0)
        with pytest.raises(ValueError, match="demand must be >= 0"):
            stack.tomcat.handle(req)

    def test_dead_datasource_fails_request(self, kernel, stack):
        stack.cjdbc.stop()
        req = stack.request()
        ok, err = completed(req, kernel)
        assert ok is False
        assert "connection refused" in str(err)

    def test_node_crash_mid_query_fails_request(self, kernel, stack):
        # The Tomcat's node dies while its DB query is in flight; the
        # answer then reaches a dead server, whose response-generation hop
        # must fail the request asynchronously instead of raising NodeDown
        # out of the kernel.
        req = WebRequest(
            kernel, "ViewItem", app_demand_pre=0.01, app_demand_post=0.002,
            db_demand=0.5,
        )
        result = {}
        req.then = lambda r: result.update(err=r.error)
        stack.tomcat.handle(req)
        kernel.run(until=0.1)
        assert stack.cjdbc.pending == 1 and req.completed_at is None
        assert stack.tomcat.pending == 1
        stack.n_tc.crash()
        kernel.run()
        assert req.error is not None
        assert isinstance(result["err"], RequestFailed)
        assert "response generation aborted" in str(result["err"])
        assert "node" in str(result["err"])
        assert stack.tomcat.pending == 0
        assert stack.tomcat.failures == 1
        assert stack.mysql.reads_served == 1

    def test_stopped_tomcat_fails_request(self, kernel, stack):
        req = WebRequest(kernel, "ViewItem", db_demand=0.01)
        stack.tomcat.stop()
        stack.tomcat.handle(req)
        ok, _ = completed(req, kernel)
        assert ok is False


class TestPlb:
    def test_balances_round_robin(self, kernel, stack):
        t2 = stack.add_tomcat("tomcat2")
        conf = PlbConf.parse(stack.n_plb.fs.read(PlbBalancer.CONFIG_PATH))
        conf.servers.append((t2.node.name, 8080))
        stack.n_plb.fs.write(PlbBalancer.CONFIG_PATH, conf.render())
        stack.plb.reload()
        for _ in range(10):
            stack.request()
        kernel.run()
        assert stack.tomcat.served == 5
        assert t2.served == 5

    def test_skips_dead_backend(self, kernel, stack):
        t2 = stack.add_tomcat("tomcat2")
        conf = PlbConf.parse(stack.n_plb.fs.read(PlbBalancer.CONFIG_PATH))
        conf.servers.append((t2.node.name, 8080))
        stack.n_plb.fs.write(PlbBalancer.CONFIG_PATH, conf.render())
        stack.plb.reload()
        t2.node.crash()
        oks = []
        for _ in range(6):
            stack.request(then=lambda r: oks.append(r.error is None))
        kernel.run()
        assert oks == [True] * 6
        assert stack.plb.retries > 0

    def test_all_backends_dead_fails(self, kernel, stack):
        stack.tomcat.stop()
        req = stack.request()
        ok, err = completed(req, kernel)
        assert ok is False
        assert "no live backend" in str(err)

    def test_no_configured_backend_fails(self, kernel, stack):
        conf = PlbConf.parse(stack.n_plb.fs.read(PlbBalancer.CONFIG_PATH))
        conf.servers.clear()
        stack.n_plb.fs.write(PlbBalancer.CONFIG_PATH, conf.render())
        stack.plb.reload()
        req = stack.request()
        ok, err = completed(req, kernel)
        assert ok is False
        assert "no live backend" in str(err)
        assert stack.plb.retries == 0 and stack.plb.failures == 1
        assert stack.tomcat.served == 0

    def test_reload_requires_running(self, kernel, stack):
        stack.plb.stop()
        with pytest.raises(ServerNotRunning):
            stack.plb.reload()


class TestApacheAndL4:
    def build_web_tier(self, kernel, lan, directory, stack):
        nodes = make_nodes(kernel, 2, prefix="web")
        apaches = []
        for node in nodes:
            node.fs.write(ApacheServer.CONFIG_PATH, HttpdConf().render())
            node.fs.write(
                "/etc/apache/worker.properties",
                WorkerProperties([Worker("w1", stack.n_tc.name, 8009)]).render(),
            )
            apache = ApacheServer(kernel, f"apache-{node.name}", node, directory, lan)
            apache.start()
            apaches.append(apache)
        switch = L4Switch(kernel, "l4", directory, lan)
        for node in nodes:
            switch.add_endpoint(node.name, 80)
        return apaches, switch

    def test_static_served_locally(self, kernel, lan, directory, stack):
        apaches, switch = self.build_web_tier(kernel, lan, directory, stack)
        req = WebRequest(kernel, "logo.png", is_static=True, static_demand=0.002)
        switch.handle(req)
        ok, _ = completed(req, kernel)
        assert ok is True
        assert sum(a.static_served for a in apaches) == 1
        assert stack.tomcat.served == 0

    def test_dynamic_forwarded_via_modjk(self, kernel, lan, directory, stack):
        apaches, switch = self.build_web_tier(kernel, lan, directory, stack)
        req = WebRequest(
            kernel, "ViewItem", app_demand_pre=0.01, app_demand_post=0.001,
            db_demand=0.01,
        )
        switch.handle(req)
        ok, _ = completed(req, kernel)
        assert ok is True
        assert stack.tomcat.served == 1

    def test_l4_balances_over_apaches(self, kernel, lan, directory, stack):
        apaches, switch = self.build_web_tier(kernel, lan, directory, stack)
        for _ in range(8):
            req = WebRequest(kernel, "x", is_static=True, static_demand=0.001)
            switch.handle(req)
        kernel.run()
        assert apaches[0].static_served == 4
        assert apaches[1].static_served == 4

    def test_l4_skips_crashed_apache(self, kernel, lan, directory, stack):
        apaches, switch = self.build_web_tier(kernel, lan, directory, stack)
        apaches[0].node.crash()
        oks = []
        for _ in range(4):
            req = WebRequest(kernel, "x", is_static=True, static_demand=0.001)
            req.then = lambda r: oks.append(r.error is None)
            switch.handle(req)
        kernel.run()
        assert oks == [True] * 4

    def test_l4_all_dead_drops(self, kernel, lan, directory, stack):
        apaches, switch = self.build_web_tier(kernel, lan, directory, stack)
        for apache in apaches:
            apache.node.crash()
        req = WebRequest(kernel, "x", is_static=True, static_demand=0.001)
        switch.handle(req)
        ok, _ = completed(req, kernel)
        assert ok is False
        assert switch.dropped == 1

    def test_no_workers_fails_dynamic(self, kernel, lan, directory, stack):
        apaches, switch = self.build_web_tier(kernel, lan, directory, stack)
        stack.tomcat.stop()
        req = WebRequest(kernel, "ViewItem", app_demand_pre=0.01, db_demand=0.01)
        switch.handle(req)
        ok, err = completed(req, kernel)
        assert ok is False
        assert "no live AJP worker" in str(err)

    def test_duplicate_endpoint_rejected(self, kernel, directory):
        switch = L4Switch(kernel, "l4", directory)
        switch.add_endpoint("h", 80)
        with pytest.raises(ValueError):
            switch.add_endpoint("h", 80)


def test_completed_requests_are_not_reference_cycles():
    """A completed request is freed by reference counting: a short
    discrete run with the cyclic collector off leaves no request among
    the unreachable cycles it then finds."""
    import gc

    from repro.jade.system import ExperimentConfig, ManagedSystem
    from repro.workload.profiles import RampProfile

    scale = 0.03
    config = ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale, step_period_s=60.0 * scale, cooldown_s=300.0 * scale
        ),
        seed=1,
    )
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system = ManagedSystem(config)
        system.run()
        gc.collect()
        leaked = sum(type(o) is WebRequest for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert system.collector.completed_requests > 1000
    assert leaked == 0
