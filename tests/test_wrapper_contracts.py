"""Contract tests for the wrapper base class and endpoint surfaces."""

import pytest

from repro.cluster.node import make_nodes
from repro.wrappers.apache import make_apache_component
from repro.wrappers.base import LegacyWrapper, WrapperError
from repro.wrappers.cjdbc import make_cjdbc_component
from repro.wrappers.mysql import make_mysql_component
from repro.wrappers.plb import make_plb_component
from repro.wrappers.tomcat import make_tomcat_component


@pytest.fixture
def env(kernel, lan, directory):
    nodes = make_nodes(kernel, 6)
    kw = dict(kernel=kernel, directory=directory, lan=lan)
    return nodes, kw


class TestEndpointContracts:
    def test_unknown_interface_endpoints_rejected(self, env):
        nodes, kw = env
        cases = [
            (make_apache_component("a", node=nodes[0], **kw), "ajp"),
            (make_tomcat_component("t", node=nodes[1], **kw), "jdbc"),
            (make_mysql_component("m", node=nodes[2], **kw), "http"),
            (make_cjdbc_component("c", node=nodes[3], **kw), "backends"),
            (make_plb_component("p", node=nodes[4], **kw), "workers"),
        ]
        for component, bad_itf in cases:
            with pytest.raises(WrapperError):
                component.content.endpoint(bad_itf)

    def test_known_endpoints_return_node_host(self, env):
        nodes, kw = env
        apache = make_apache_component("a", {"port": 81}, node=nodes[0], **kw)
        assert apache.content.endpoint("http") == (nodes[0].name, 81)
        mysql = make_mysql_component("m", {"port": 3310}, node=nodes[1], **kw)
        assert mysql.content.endpoint("mysql") == (nodes[1].name, 3310)
        assert mysql.content.endpoint("jdbc") == (nodes[1].name, 3310)

    def test_jdbc_driver_contract(self, env):
        nodes, kw = env
        assert make_mysql_component("m", node=nodes[0], **kw).content.jdbc_driver() == "mysql"
        assert make_cjdbc_component("c", node=nodes[1], **kw).content.jdbc_driver() == "cjdbc"
        with pytest.raises(WrapperError):
            make_apache_component("a", node=nodes[2], **kw).content.jdbc_driver()


class TestLifecycleContracts:
    def test_wrapper_running_reflects_server(self, env):
        nodes, kw = env
        mysql = make_mysql_component("m", node=nodes[0], **kw)
        assert not mysql.content.running
        mysql.start()
        assert mysql.content.running
        mysql.stop()
        assert not mysql.content.running

    def test_startup_times_declared(self, env):
        nodes, kw = env
        components = [
            make_apache_component("a", node=nodes[0], **kw),
            make_tomcat_component("t", node=nodes[1], **kw),
            make_mysql_component("m", node=nodes[2], **kw),
        ]
        for comp in components:
            assert comp.content.startup_time_s > 0

    def test_abstract_wrapper_contract(self, kernel, lan, directory):
        nodes = make_nodes(kernel, 1)
        wrapper = LegacyWrapper(kernel, nodes[0], directory, lan)
        with pytest.raises(NotImplementedError):
            wrapper.write_config()
        with pytest.raises(NotImplementedError):
            wrapper.endpoint("x")

    def test_attr_helper_defaults(self, env):
        nodes, kw = env
        mysql = make_mysql_component("m", node=nodes[0], **kw)
        assert mysql.content._attr("port") == 3306
        assert mysql.content._attr("ghost", "fallback") == "fallback"

    def test_config_regenerated_from_management_state(self, env):
        """Deleting the legacy file and rewriting from the wrapper restores
        identical content — the management layer is the source of truth."""
        nodes, kw = env
        mysql = make_mysql_component("m", {"port": 3311}, node=nodes[0], **kw)
        original = nodes[0].fs.read("/etc/mysql/my.cnf")
        nodes[0].fs.delete("/etc/mysql/my.cnf")
        mysql.content.write_config()
        assert nodes[0].fs.read("/etc/mysql/my.cnf") == original
