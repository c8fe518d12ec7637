"""Tests for the ADL deployment service."""

import pytest

from repro.cluster.allocator import ClusterManager, NoFreeNodeError
from repro.cluster.installer import Package, SoftwareInstallationService
from repro.cluster.node import make_nodes
from repro.fractal.adl import AdlError, parse_adl
from repro.jade.deployment import DeploymentService
from repro.wrappers.registry import default_factory_registry


@pytest.fixture
def deployer(kernel, lan, directory):
    nodes = make_nodes(kernel, 10)
    cluster = ClusterManager(nodes)
    installer = SoftwareInstallationService(kernel, lan)
    installer.register(Package("tomcat", "3.3.2"))
    installer.register(Package("mysql", "4.0.17"))
    installer.register(Package("plb", "0.3"))
    svc = DeploymentService(
        kernel, default_factory_registry(), cluster, directory, installer, lan
    )
    svc.cluster = cluster
    return svc


SIMPLE = """
<definition name="app">
  <component name="mysql" type="mysql"/>
  <component name="cjdbc" type="cjdbc"/>
  <component name="plb" type="plb"/>
  <component name="tomcat" type="tomcat"/>
  <binding client="cjdbc.backends" server="mysql.mysql"/>
  <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
  <binding client="plb.workers" server="tomcat.http"/>
</definition>
"""


class TestDeploy:
    def test_deploys_and_starts(self, deployer, kernel):
        app = deployer.deploy(parse_adl(SIMPLE))
        app.start()
        kernel.run()
        assert app.instance("tomcat").lifecycle_controller.is_started()
        assert app.instance("plb").content.running

    def test_nodes_allocated_in_spec_order(self, deployer):
        app = deployer.deploy(parse_adl(SIMPLE))
        assert app.node_of(app.instance("mysql")).name == "node1"
        assert app.node_of(app.instance("cjdbc")).name == "node2"
        assert app.node_of(app.instance("plb")).name == "node3"
        assert app.node_of(app.instance("tomcat")).name == "node4"

    def test_replicas_expand_with_numbered_names(self, deployer):
        adl = """
        <definition name="app">
          <component name="mysql" type="mysql"/>
          <component name="cjdbc" type="cjdbc"/>
          <component name="tomcat" type="tomcat" replicas="3"/>
          <component name="plb" type="plb"/>
          <binding client="cjdbc.backends" server="mysql.mysql"/>
          <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
          <binding client="plb.workers" server="tomcat.http"/>
        </definition>
        """
        app = deployer.deploy(parse_adl(adl))
        names = [c.name for c in app.instances("tomcat")]
        assert names == ["tomcat1", "tomcat2", "tomcat3"]
        # The balancer's collection interface bound all three replicas.
        plb = app.instance("plb")
        assert len(plb.binding_controller.bound_instances("workers")) == 3

    def test_replicated_server_with_singleton_client_rejected(self, deployer):
        adl = """
        <definition name="app">
          <component name="cjdbc" type="cjdbc" replicas="2"/>
          <component name="tomcat" type="tomcat"/>
          <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
        </definition>
        """
        with pytest.raises(AdlError):
            deployer.deploy(parse_adl(adl))

    def test_composites_nest(self, deployer):
        adl = """
        <definition name="app">
          <component name="web-tier" composite="true">
            <component name="apache" type="apache" replicas="2"/>
          </component>
        </definition>
        """
        app = deployer.deploy(parse_adl(adl))
        tier = app.instance("web-tier")
        assert tier.is_composite()
        assert [c.name for c in tier.content_controller.sub_components()] == [
            "apache1",
            "apache2",
        ]

    def test_virtual_node_shares_hardware(self, deployer):
        adl = """
        <definition name="app">
          <component name="mysql" type="mysql">
            <virtual-node name="shared"/>
          </component>
          <component name="plb" type="plb" package="plb">
            <virtual-node name="shared"/>
          </component>
        </definition>
        """
        app = deployer.deploy(parse_adl(adl))
        assert app.node_of(app.instance("mysql")) is app.node_of(app.instance("plb"))

    def test_packages_installed(self, deployer, kernel):
        app = deployer.deploy(parse_adl(SIMPLE.replace(
            '<component name="tomcat" type="tomcat"/>',
            '<component name="tomcat" type="tomcat" package="tomcat"/>',
        )))
        kernel.run()
        node = app.node_of(app.instance("tomcat"))
        assert deployer.installer.is_installed("tomcat", node)

    def test_pool_exhaustion_surfaces(self, kernel, lan, directory):
        cluster = ClusterManager(make_nodes(kernel, 1))
        svc = DeploymentService(
            kernel, default_factory_registry(), cluster, directory, None, lan
        )
        adl = """
        <definition name="app">
          <component name="tomcat" type="tomcat" replicas="3"/>
        </definition>
        """
        with pytest.raises(NoFreeNodeError):
            svc.deploy(parse_adl(adl))

    def test_attributes_forwarded_to_factory(self, deployer):
        adl = """
        <definition name="app">
          <component name="mysql" type="mysql">
            <attribute name="port" value="3310"/>
          </component>
        </definition>
        """
        app = deployer.deploy(parse_adl(adl))
        assert app.instance("mysql").get_attr("port") == 3310

    def test_instance_lookup_on_replicated_spec_rejected(self, deployer):
        adl = """
        <definition name="app">
          <component name="mysql" type="mysql" replicas="2"/>
        </definition>
        """
        app = deployer.deploy(parse_adl(adl))
        with pytest.raises(KeyError):
            app.instance("mysql")
        assert len(app.instances("mysql")) == 2

    def test_cross_binding_matrix(self, deployer):
        """Figure 2's architecture: 2 Apaches × 2 Tomcats cross-bound."""
        adl = """
        <definition name="fig2">
          <component name="mysql" type="mysql"/>
          <component name="cjdbc" type="cjdbc"/>
          <component name="tomcat" type="tomcat" replicas="2"/>
          <component name="apache" type="apache" replicas="2"/>
          <binding client="cjdbc.backends" server="mysql.mysql"/>
          <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
          <binding client="apache.ajp" server="tomcat.ajp"/>
        </definition>
        """
        app = deployer.deploy(parse_adl(adl))
        for apache in app.instances("apache"):
            assert len(apache.binding_controller.bound_instances("ajp")) == 2
