"""Tests for composition-with-sharing and architectural views (§3.2)."""

import pytest

from repro.fractal.component import Component
from repro.fractal.errors import IllegalContentError
from repro.fractal.introspection import (
    architecture_report,
    iter_components,
    verify_architecture,
)
from repro.fractal.views import build_view, software_view, topology_view


class Dummy:
    def __init__(self, node=None):
        self.node = node


class TestSharing:
    def test_shared_component_in_two_composites(self):
        home = Component("home", composite=True)
        view = Component("view", composite=True)
        leaf = Component("leaf", content=Dummy())
        home.content_controller.add(leaf)
        view.content_controller.add(leaf, shared=True)
        assert leaf.parent is home
        assert view in leaf.shared_parents
        assert leaf in view.content_controller.sub_components()

    def test_double_share_rejected(self):
        home = Component("home", composite=True)
        view = Component("view", composite=True)
        leaf = Component("leaf", content=Dummy())
        home.content_controller.add(leaf)
        view.content_controller.add(leaf, shared=True)
        with pytest.raises(IllegalContentError):
            view.content_controller.add(leaf, shared=True)

    def test_removing_shared_reference_keeps_component_running(self):
        home = Component("home", composite=True)
        view = Component("view", composite=True)
        leaf = Component("leaf", content=Dummy())
        home.content_controller.add(leaf)
        view.content_controller.add(leaf, shared=True)
        leaf.start()
        view.content_controller.remove(leaf)  # no stop required
        assert leaf.lifecycle_controller.is_started()
        assert leaf.parent is home
        assert view not in leaf.shared_parents

    def test_primary_removal_still_requires_stop(self):
        home = Component("home", composite=True)
        leaf = Component("leaf", content=Dummy())
        home.content_controller.add(leaf)
        leaf.start()
        with pytest.raises(IllegalContentError):
            home.content_controller.remove(leaf)

    def test_starting_both_parents_is_idempotent(self):
        events = []

        class Tracker:
            def on_start(self, component):
                events.append("start")

        home = Component("home", composite=True)
        view = Component("view", composite=True)
        leaf = Component("leaf", content=Tracker())
        home.content_controller.add(leaf)
        view.content_controller.add(leaf, shared=True)
        home.start()
        view.start()
        assert events == ["start"]

    def test_iteration_visits_shared_once(self):
        root = Component("root", composite=True)
        home = Component("home", composite=True)
        view = Component("view", composite=True)
        leaf = Component("leaf", content=Dummy())
        root.content_controller.add(home)
        root.content_controller.add(view)
        home.content_controller.add(leaf)
        view.content_controller.add(leaf, shared=True)
        names = [c.name for c in iter_components(root)]
        assert names.count("leaf") == 1

    def test_verify_accepts_sharing(self):
        root = Component("root", composite=True)
        home = Component("home", composite=True)
        view = Component("view", composite=True)
        leaf = Component("leaf", content=Dummy())
        root.content_controller.add(home)
        root.content_controller.add(view)
        home.content_controller.add(leaf)
        view.content_controller.add(leaf, shared=True)
        assert verify_architecture(root) == []


@pytest.fixture
def deployed(kernel, lan, directory):
    """A small deployed application to build views over."""
    from repro.cluster.allocator import ClusterManager
    from repro.cluster.node import make_nodes
    from repro.fractal.adl import parse_adl
    from repro.jade.deployment import DeploymentService
    from repro.wrappers.registry import default_factory_registry

    cluster = ClusterManager(make_nodes(kernel, 6))
    deployer = DeploymentService(
        kernel, default_factory_registry(), cluster, directory, None, lan
    )
    adl = """
    <definition name="app">
      <component name="mysql" type="mysql"/>
      <component name="cjdbc" type="cjdbc"/>
      <component name="plb" type="plb"/>
      <component name="tomcat" type="tomcat" replicas="2"/>
      <binding client="cjdbc.backends" server="mysql.mysql"/>
      <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
      <binding client="plb.workers" server="tomcat.http"/>
    </definition>
    """
    return deployer.deploy(parse_adl(adl))


class TestViews:
    def test_topology_view_groups_by_node(self, deployed):
        view = topology_view(deployed.root)
        groups = {
            g.name: [c.name for c in g.content_controller.sub_components()]
            for g in view.content_controller.sub_components()
        }
        # One node per component (spec order: mysql, cjdbc, plb, tomcat x2).
        assert groups["topology:node1"] == ["mysql"]
        assert groups["topology:node4"] == ["tomcat1"]
        assert groups["topology:node5"] == ["tomcat2"]

    def test_software_view_groups_by_kind(self, deployed):
        view = software_view(deployed.root)
        groups = {
            g.name: sorted(c.name for c in g.content_controller.sub_components())
            for g in view.content_controller.sub_components()
        }
        assert groups["software:tomcat"] == ["tomcat1", "tomcat2"]
        assert groups["software:mysql"] == ["mysql"]

    def test_views_reference_not_copy(self, deployed):
        view = topology_view(deployed.root)
        tomcat1 = deployed.instances("tomcat")[0]
        in_view = next(
            c
            for g in view.content_controller.sub_components()
            for c in g.content_controller.sub_components()
            if c.name == "tomcat1"
        )
        assert in_view is tomcat1

    def test_view_stays_consistent_with_reality(self, deployed):
        """Stopping the real component is visible through the view."""
        deployed.start()
        view = software_view(deployed.root)
        tomcat1 = deployed.instances("tomcat")[0]
        tomcat1.stop()
        in_view = next(
            c
            for g in view.content_controller.sub_components()
            for c in g.content_controller.sub_components()
            if c.name == "tomcat1"
        )
        assert not in_view.lifecycle_controller.is_started()

    def test_report_renders_views(self, deployed):
        view = topology_view(deployed.root)
        report = architecture_report(view)
        assert "topology:node1" in report

    def test_custom_grouping(self, deployed):
        view = build_view(
            "by-letter", deployed.root, lambda c: c.name[0]
        )
        names = {g.name for g in view.content_controller.sub_components()}
        assert "by-letter:t" in names
        assert "by-letter:m" in names
