"""Tests for the Fractal wrappers: management operations must be reflected
into the proprietary legacy configuration, and never bypass it."""

import pytest

from repro.cluster.node import make_nodes
from repro.fractal.errors import IllegalBindingError, IllegalLifecycleError
from repro.legacy.requests import WebRequest
from repro.legacy.cjdbc import BackendState
from repro.legacy.configfiles import (
    CjdbcXml,
    HttpdConf,
    MyCnf,
    PlbConf,
    ServerXml,
    WorkerProperties,
)
from repro.wrappers.apache import make_apache_component
from repro.wrappers.base import WrapperError
from repro.wrappers.cjdbc import make_cjdbc_component
from repro.wrappers.l4switch import make_l4switch_component
from repro.wrappers.mysql import make_mysql_component
from repro.wrappers.plb import make_plb_component
from repro.wrappers.tomcat import make_tomcat_component


@pytest.fixture
def ctx(kernel, lan, directory):
    nodes = make_nodes(kernel, 8)
    return {
        "kernel": kernel,
        "lan": lan,
        "directory": directory,
        "nodes": nodes,
    }


def build_full_stack(ctx):
    """mysql + cjdbc + tomcat + plb components, bound and started."""
    kw = dict(kernel=ctx["kernel"], directory=ctx["directory"], lan=ctx["lan"])
    mysql = make_mysql_component("mysql1", node=ctx["nodes"][0], **kw)
    cjdbc = make_cjdbc_component("cjdbc1", node=ctx["nodes"][1], **kw)
    tomcat = make_tomcat_component("tomcat1", node=ctx["nodes"][2], **kw)
    plb = make_plb_component("plb1", node=ctx["nodes"][3], **kw)
    cjdbc.bind("backends", mysql.get_interface("mysql"))
    tomcat.bind("jdbc", cjdbc.get_interface("jdbc"))
    plb.bind("workers", tomcat.get_interface("http"))
    for comp in (mysql, cjdbc, tomcat, plb):
        comp.start()
    return mysql, cjdbc, tomcat, plb


class TestApacheWrapper:
    def test_attributes_reflected_in_httpd_conf(self, ctx):
        node = ctx["nodes"][0]
        apache = make_apache_component(
            "apache1", {"port": 81}, node=node, **{k: ctx[k] for k in ("kernel", "directory", "lan")}
        )
        conf = HttpdConf.parse(node.fs.read("/etc/apache/httpd.conf"))
        assert conf.listen == 81
        apache.set_attr("max_clients", 99)
        conf = HttpdConf.parse(node.fs.read("/etc/apache/httpd.conf"))
        assert conf.max_clients == 99

    def test_port_change_requires_stop(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        apache = make_apache_component("apache1", node=ctx["nodes"][0], **kw)
        apache.start()
        with pytest.raises(WrapperError):
            apache.set_attr("port", 8081)
        apache.stop()
        apache.set_attr("port", 8081)
        assert HttpdConf.parse(ctx["nodes"][0].fs.read("/etc/apache/httpd.conf")).listen == 8081

    def test_bind_writes_worker_properties(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        apache = make_apache_component("apache1", node=ctx["nodes"][0], **kw)
        tomcat = make_tomcat_component("tomcat1", node=ctx["nodes"][1], **kw)
        apache.bind("ajp", tomcat.get_interface("ajp"))
        wp = WorkerProperties.parse(
            ctx["nodes"][0].fs.read("/etc/apache/worker.properties")
        )
        assert wp.workers[0].host == ctx["nodes"][1].name
        assert wp.workers[0].port == 8009

    def test_paper_5_1_reconfiguration_scenario(self, ctx):
        """stop / unbind / bind / start — and the legacy file follows."""
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        apache1 = make_apache_component("apache1", node=ctx["nodes"][0], **kw)
        tomcat1 = make_tomcat_component("tomcat1", node=ctx["nodes"][1], **kw)
        tomcat2 = make_tomcat_component("tomcat2", node=ctx["nodes"][2], **kw)
        inst = apache1.bind("ajp", tomcat1.get_interface("ajp"))
        apache1.start()
        # Rebinding while started must fail: mod_jk is static.
        with pytest.raises(IllegalBindingError):
            apache1.unbind(inst)
        apache1.stop()
        apache1.unbind(inst)
        apache1.bind("ajp", tomcat2.get_interface("ajp"))
        apache1.start()
        wp = WorkerProperties.parse(
            ctx["nodes"][0].fs.read("/etc/apache/worker.properties")
        )
        assert [w.host for w in wp.workers] == [ctx["nodes"][2].name]


class TestTomcatWrapper:
    def test_requires_jdbc_binding_to_start(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        tomcat = make_tomcat_component("tomcat1", node=ctx["nodes"][0], **kw)
        with pytest.raises(IllegalLifecycleError):
            tomcat.start()

    def test_bind_to_cjdbc_sets_datasource(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        tomcat = make_tomcat_component("tomcat1", node=ctx["nodes"][0], **kw)
        cjdbc = make_cjdbc_component("cjdbc1", node=ctx["nodes"][1], **kw)
        tomcat.bind("jdbc", cjdbc.get_interface("jdbc"))
        conf = ServerXml.parse(ctx["nodes"][0].fs.read("/etc/tomcat/server.xml"))
        assert conf.datasource_url == f"jdbc:cjdbc://{ctx['nodes'][1].name}:25322/rubis"

    def test_bind_direct_to_mysql_uses_mysql_driver(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        tomcat = make_tomcat_component("tomcat1", node=ctx["nodes"][0], **kw)
        mysql = make_mysql_component("mysql1", node=ctx["nodes"][1], **kw)
        tomcat.bind("jdbc", mysql.get_interface("jdbc"))
        conf = ServerXml.parse(ctx["nodes"][0].fs.read("/etc/tomcat/server.xml"))
        assert conf.datasource_url.startswith("jdbc:mysql://")

    def test_port_attributes(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        tomcat = make_tomcat_component(
            "tomcat1", {"http_port": 9090, "ajp_port": 9009}, node=ctx["nodes"][0], **kw
        )
        conf = ServerXml.parse(ctx["nodes"][0].fs.read("/etc/tomcat/server.xml"))
        assert conf.http_port == 9090
        assert conf.ajp_port == 9009


class TestMySqlWrapper:
    def test_config_written(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        make_mysql_component("mysql1", {"port": 3310}, node=ctx["nodes"][0], **kw)
        conf = MyCnf.parse(ctx["nodes"][0].fs.read("/etc/mysql/my.cnf"))
        assert conf.port == 3310

    def test_start_registers_endpoint(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        mysql = make_mysql_component("mysql1", node=ctx["nodes"][0], **kw)
        mysql.start()
        assert ctx["directory"].lookup(ctx["nodes"][0].name, 3306) is mysql.content.server


class TestCJdbcWrapper:
    def test_bind_updates_config_and_attaches_live(self, ctx):
        mysql, cjdbc, tomcat, plb = build_full_stack(ctx)
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        mysql2 = make_mysql_component("mysql2", node=ctx["nodes"][4], **kw)
        mysql2.start()
        instance = cjdbc.bind("backends", mysql2.get_interface("mysql"))
        ctx["kernel"].run()
        conf = CjdbcXml.parse(ctx["nodes"][1].fs.read("/etc/cjdbc/cjdbc.xml"))
        assert len(conf.backends) == 2
        controller = cjdbc.content.controller
        assert controller.backend(instance).state is BackendState.ENABLED

    def test_unbind_detaches_with_checkpoint(self, ctx):
        mysql, cjdbc, tomcat, plb = build_full_stack(ctx)
        kernel = ctx["kernel"]
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        mysql2 = make_mysql_component("mysql2", node=ctx["nodes"][4], **kw)
        mysql2.start()
        instance = cjdbc.bind("backends", mysql2.get_interface("mysql"))
        kernel.run()
        cjdbc.unbind(instance)
        controller = cjdbc.content.controller
        assert instance not in [b.name for b in controller.backends()]
        assert controller.log.checkpoint(instance) is not None
        conf = CjdbcXml.parse(ctx["nodes"][1].fs.read("/etc/cjdbc/cjdbc.xml"))
        assert len(conf.backends) == 1

    def test_bind_non_mysql_rejected(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        cjdbc = make_cjdbc_component("cjdbc1", node=ctx["nodes"][0], **kw)
        tomcat = make_tomcat_component("tomcat1", node=ctx["nodes"][1], **kw)
        # Give tomcat a fake 'mysql'-signature server interface to sneak past
        # the signature check; the wrapper's type check must still refuse.
        from repro.fractal.interfaces import InterfaceType, SERVER

        tomcat.add_interface_type(InterfaceType("fake", "mysql", role=SERVER))
        with pytest.raises(WrapperError):
            cjdbc.bind("backends", tomcat.get_interface("fake"))


class TestPlbWrapper:
    def test_bind_rewrites_conf_and_reloads_live(self, ctx):
        mysql, cjdbc, tomcat, plb = build_full_stack(ctx)
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        tomcat2 = make_tomcat_component("tomcat2", node=ctx["nodes"][4], **kw)
        tomcat2.bind("jdbc", cjdbc.get_interface("jdbc"))
        tomcat2.start()
        plb.bind("workers", tomcat2.get_interface("http"))
        conf = PlbConf.parse(ctx["nodes"][3].fs.read("/etc/plb/plb.conf"))
        assert len(conf.servers) == 2
        # Balancer picked it up live (no restart).
        assert plb.content.balancer.running
        assert len(plb.content.balancer.backend_endpoints) == 2

    def test_end_to_end_request_through_components(self, ctx):
        mysql, cjdbc, tomcat, plb = build_full_stack(ctx)
        kernel = ctx["kernel"]
        req = WebRequest(
            kernel, "ViewItem", app_demand_pre=0.01, app_demand_post=0.001,
            db_demand=0.02,
        )
        results = []
        req.then = lambda r: results.append(r.error)
        plb.content.balancer.handle(req)
        kernel.run()
        assert results == [None]
        assert mysql.content.server.reads_served == 1


class TestL4SwitchWrapper:
    def test_bind_patches_endpoint(self, ctx):
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        apache = make_apache_component("apache1", node=ctx["nodes"][0], **kw)
        switch = make_l4switch_component(
            "l4", kernel=ctx["kernel"], directory=ctx["directory"], lan=ctx["lan"]
        )
        instance = switch.bind("web", apache.get_interface("http"))
        assert switch.content.server.endpoints == [(ctx["nodes"][0].name, 80)]
        switch.start()
        switch.unbind(instance)
        assert switch.content.server.endpoints == []

    def test_uniformity_of_management_interface(self, ctx):
        """The paper's punchline: hardware switch, web server and database
        all manage through the identical controller API."""
        kw = {k: ctx[k] for k in ("kernel", "directory", "lan")}
        components = [
            make_apache_component("a", node=ctx["nodes"][0], **kw),
            make_mysql_component("m", node=ctx["nodes"][1], **kw),
            make_l4switch_component(
                "l4", kernel=ctx["kernel"], directory=ctx["directory"]
            ),
        ]
        for comp in components:
            assert comp.lifecycle_controller is not None
            assert comp.binding_controller is not None
            assert comp.attribute_controller is not None
            comp.start()
            comp.stop()
