"""Unit + property tests for the legacy configuration-file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.legacy.configfiles import (
    CjdbcBackend,
    CjdbcXml,
    ConfigError,
    HttpdConf,
    MyCnf,
    PlbConf,
    ServerXml,
    Worker,
    WorkerProperties,
)

hostnames = st.from_regex(r"[a-z][a-z0-9]{0,10}", fullmatch=True)
ports = st.integers(min_value=1, max_value=65535)


class TestHttpdConf:
    def test_roundtrip(self):
        conf = HttpdConf(listen=8080, server_name="web1", max_clients=50)
        assert HttpdConf.parse(conf.render()) == conf

    def test_parse_ignores_comments_and_blanks(self):
        text = "# comment\n\nListen 81\n"
        assert HttpdConf.parse(text).listen == 81

    def test_unknown_directive_rejected(self):
        with pytest.raises(ConfigError):
            HttpdConf.parse("Bogus value\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            HttpdConf.parse("Listen\n")

    @given(port=ports, clients=st.integers(1, 10_000), host=hostnames)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, port, clients, host):
        conf = HttpdConf(listen=port, max_clients=clients, server_name=host)
        assert HttpdConf.parse(conf.render()) == conf


class TestWorkerProperties:
    def test_roundtrip(self):
        wp = WorkerProperties(
            [Worker("w1", "node2", 8098), Worker("w2", "node3", 8098, lbfactor=50)]
        )
        assert WorkerProperties.parse(wp.render()) == wp

    def test_renders_paper_format(self):
        wp = WorkerProperties([Worker("worker", "node3", 8098)])
        text = wp.render()
        # The exact directives quoted in the paper's §5.1.
        assert "worker.worker.port=8098" in text
        assert "worker.worker.host=node3" in text
        assert "worker.worker.type=ajp13" in text
        assert "worker.loadbalancer.type=lb" in text
        assert "worker.loadbalancer.balanced_workers=worker" in text

    def test_empty_worker_list(self):
        wp = WorkerProperties([])
        assert WorkerProperties.parse(wp.render()) == wp

    def test_worker_lookup(self):
        wp = WorkerProperties([Worker("a", "h", 1)])
        assert wp.worker("a").port == 1
        with pytest.raises(KeyError):
            wp.worker("b")

    def test_balanced_worker_without_definition_rejected(self):
        text = "worker.loadbalancer.type=lb\nworker.loadbalancer.balanced_workers=ghost\n"
        with pytest.raises(ConfigError):
            WorkerProperties.parse(text)

    def test_worker_missing_property_rejected(self):
        text = (
            "worker.w.host=h\n"
            "worker.loadbalancer.type=lb\n"
            "worker.loadbalancer.balanced_workers=w\n"
        )
        with pytest.raises(ConfigError):
            WorkerProperties.parse(text)

    def test_malformed_key_rejected(self):
        with pytest.raises(ConfigError):
            WorkerProperties.parse("notworker.a.b=c\n")
        with pytest.raises(ConfigError):
            WorkerProperties.parse("just a line\n")

    @given(
        entries=st.lists(
            st.tuples(hostnames, ports, st.integers(1, 100)),
            min_size=0,
            max_size=5,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, entries):
        workers = [
            Worker(f"w{i}", host, port, lbfactor=lb)
            for i, (host, port, lb) in enumerate(entries)
        ]
        wp = WorkerProperties(workers)
        assert WorkerProperties.parse(wp.render()) == wp


class TestServerXml:
    def test_roundtrip(self):
        conf = ServerXml(
            http_port=8081,
            ajp_port=8010,
            datasource_url="jdbc:cjdbc://db-lb:25322/rubis",
            max_threads=99,
        )
        assert ServerXml.parse(conf.render()) == conf

    def test_bad_xml_rejected(self):
        with pytest.raises(ConfigError):
            ServerXml.parse("<Server><Connector></Server>")

    @given(http=ports, ajp=ports, threads=st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, http, ajp, threads):
        conf = ServerXml(http_port=http, ajp_port=ajp, max_threads=threads)
        assert ServerXml.parse(conf.render()) == conf


class TestMyCnf:
    def test_roundtrip(self):
        conf = MyCnf(port=3307, datadir="/data", max_connections=55)
        assert MyCnf.parse(conf.render()) == conf

    def test_other_sections_ignored(self):
        text = "[client]\nport=1\n[mysqld]\nport=3308\n"
        assert MyCnf.parse(text).port == 3308

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            MyCnf.parse("[mysqld]\nport\n")

    @given(port=ports, conns=st.integers(1, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, port, conns):
        conf = MyCnf(port=port, max_connections=conns)
        assert MyCnf.parse(conf.render()) == conf


class TestCjdbcXml:
    def test_roundtrip(self):
        conf = CjdbcXml(
            vdb_name="rubis",
            port=25000,
            policy="RoundRobin",
            backends=[CjdbcBackend("b1", "node4", 3306), CjdbcBackend("b2", "node5", 3306)],
        )
        assert CjdbcXml.parse(conf.render()) == conf

    def test_missing_vdb_rejected(self):
        with pytest.raises(ConfigError):
            CjdbcXml.parse("<C-JDBC></C-JDBC>")

    def test_incomplete_backend_rejected(self):
        text = (
            '<C-JDBC><VirtualDatabase name="r" port="1">'
            '<RAIDb-1 loadBalancer="x"><DatabaseBackend name="b"/></RAIDb-1>'
            "</VirtualDatabase></C-JDBC>"
        )
        with pytest.raises(ConfigError):
            CjdbcXml.parse(text)

    @given(
        backends=st.lists(st.tuples(hostnames, ports), min_size=0, max_size=4),
        port=ports,
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, backends, port):
        conf = CjdbcXml(
            port=port,
            backends=[
                CjdbcBackend(f"b{i}", host, p) for i, (host, p) in enumerate(backends)
            ],
        )
        assert CjdbcXml.parse(conf.render()) == conf


class TestPlbConf:
    def test_roundtrip(self):
        conf = PlbConf(listen=9000, servers=[("n1", 8080), ("n2", 8080)], policy="random")
        assert PlbConf.parse(conf.render()) == conf

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ConfigError):
            PlbConf.parse("bogus 1\n")

    def test_bad_server_spec_rejected(self):
        with pytest.raises(ConfigError):
            PlbConf.parse("server no-port\n")

    def test_comments_ignored(self):
        conf = PlbConf.parse("# hello\nlisten 9000\npolicy roundrobin\n")
        assert conf.listen == 9000

    @given(servers=st.lists(st.tuples(hostnames, ports), max_size=5), listen=ports)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, servers, listen):
        conf = PlbConf(listen=listen, servers=servers)
        assert PlbConf.parse(conf.render()) == conf
