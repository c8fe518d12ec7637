"""Unit tests for the Fractal component model."""

import pytest

from repro.fractal.component import Component
from repro.fractal.controllers import LifecycleState
from repro.fractal.errors import (
    IllegalBindingError,
    IllegalContentError,
    IllegalLifecycleError,
    NoSuchAttributeError,
    NoSuchInterfaceError,
)
from repro.fractal.interfaces import (
    CLIENT,
    COLLECTION,
    InterfaceType,
    MANDATORY,
    OPTIONAL,
    SERVER,
)
from repro.fractal.introspection import (
    architecture_report,
    iter_components,
    verify_architecture,
)


class EchoContent:
    """Content recording controller hooks; answers ``ping``."""

    def __init__(self):
        self.events = []

    def attached(self, component):
        self.component = component

    def on_start(self, component):
        self.events.append("start")

    def on_stop(self, component):
        self.events.append("stop")

    def on_bind(self, component, name, server_itf):
        self.events.append(("bind", name))

    def on_unbind(self, component, name):
        self.events.append(("unbind", name))

    def on_attribute_changed(self, component, name, value):
        self.events.append(("attr", name, value))

    def ping(self, payload):
        return f"pong:{payload}"


def make_server(name="srv"):
    content = EchoContent()
    comp = Component(
        name,
        interface_types=[InterfaceType("svc", "proto", role=SERVER)],
        content=content,
    )
    return comp, content


def make_client(name="cli", contingency=MANDATORY, cardinality="singleton", dynamic=False):
    content = EchoContent()
    comp = Component(
        name,
        interface_types=[
            InterfaceType(
                "out",
                "proto",
                role=CLIENT,
                contingency=contingency,
                cardinality=cardinality,
                dynamic=dynamic,
            )
        ],
        content=content,
    )
    return comp, content


class TestInterfaceTypes:
    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            InterfaceType("x", "sig", role="bidirectional")

    def test_bad_contingency_rejected(self):
        with pytest.raises(ValueError):
            InterfaceType("x", "sig", contingency="sometimes")

    def test_bad_cardinality_rejected(self):
        with pytest.raises(ValueError):
            InterfaceType("x", "sig", cardinality="pair")

    def test_predicates(self):
        t = InterfaceType("x", "sig", role=CLIENT, cardinality=COLLECTION)
        assert t.is_client() and not t.is_server()
        assert t.is_collection()
        assert t.is_mandatory()


class TestInvocation:
    def test_server_invocation_reaches_delegate(self):
        srv, _ = make_server()
        assert srv.get_interface("svc").invoke("ping", "a") == "pong:a"

    def test_client_invocation_forwards_to_target(self):
        srv, _ = make_server()
        cli, _ = make_client()
        cli.bind("out", srv.get_interface("svc"))
        assert cli.get_interface("out").invoke("ping", "b") == "pong:b"

    def test_unbound_client_invocation_raises(self):
        cli, _ = make_client()
        with pytest.raises(IllegalBindingError):
            cli.get_interface("out").invoke("ping", "x")


class TestBindingController:
    def test_bind_records_and_hooks(self):
        srv, _ = make_server()
        cli, content = make_client()
        instance = cli.bind("out", srv.get_interface("svc"))
        assert instance == "out"
        assert ("bind", "out") in content.events
        assert cli.binding_controller.lookup("out") is srv.get_interface("svc")

    def test_signature_mismatch_rejected(self):
        srv = Component(
            "srv",
            interface_types=[InterfaceType("svc", "other-proto", role=SERVER)],
            content=EchoContent(),
        )
        cli, _ = make_client()
        with pytest.raises(IllegalBindingError):
            cli.bind("out", srv.get_interface("svc"))

    def test_binding_to_client_interface_rejected(self):
        cli1, _ = make_client("c1")
        cli2, _ = make_client("c2")
        with pytest.raises(IllegalBindingError):
            cli1.bind("out", cli2.get_interface("out"))

    def test_binding_server_side_interface_rejected(self):
        srv, _ = make_server()
        other, _ = make_server("other")
        with pytest.raises(IllegalBindingError):
            srv.bind("svc", other.get_interface("svc"))

    def test_singleton_double_bind_rejected(self):
        srv, _ = make_server()
        cli, _ = make_client()
        cli.bind("out", srv.get_interface("svc"))
        with pytest.raises(IllegalBindingError):
            cli.bind("out", srv.get_interface("svc"))

    def test_collection_binds_many(self):
        cli, _ = make_client(cardinality=COLLECTION)
        servers = [make_server(f"s{i}")[0] for i in range(3)]
        instances = [cli.bind("out", s.get_interface("svc")) for s in servers]
        assert instances == ["out-0", "out-1", "out-2"]
        assert cli.binding_controller.bound_instances("out") == instances

    def test_collection_explicit_instance_name(self):
        cli, _ = make_client(cardinality=COLLECTION)
        srv, _ = make_server()
        assert cli.bind("out-7", srv.get_interface("svc")) == "out-7"
        with pytest.raises(IllegalBindingError):
            cli.bind("out-7", srv.get_interface("svc"))

    def test_unbind_removes_and_hooks(self):
        srv, _ = make_server()
        cli, content = make_client()
        cli.bind("out", srv.get_interface("svc"))
        cli.unbind("out")
        assert ("unbind", "out") in content.events
        assert cli.binding_controller.lookup("out") is None

    def test_unbind_unbound_rejected(self):
        cli, _ = make_client()
        with pytest.raises(IllegalBindingError):
            cli.unbind("out")

    def test_unknown_interface_rejected(self):
        cli, _ = make_client()
        srv, _ = make_server()
        with pytest.raises(NoSuchInterfaceError):
            cli.bind("nope", srv.get_interface("svc"))

    def test_static_interface_frozen_while_started(self):
        srv, _ = make_server()
        cli, _ = make_client(dynamic=False)
        cli.bind("out", srv.get_interface("svc"))
        cli.start()
        with pytest.raises(IllegalBindingError):
            cli.unbind("out")
        cli.stop()
        cli.unbind("out")  # legal once stopped

    def test_dynamic_interface_rebinds_live(self):
        cli, _ = make_client(dynamic=True, cardinality=COLLECTION)
        s1, _ = make_server("s1")
        cli.bind("out", s1.get_interface("svc"))
        cli.start()
        s2, _ = make_server("s2")
        inst = cli.bind("out", s2.get_interface("svc"))
        cli.unbind(inst)

    def test_unbind_all(self):
        cli, _ = make_client(cardinality=COLLECTION, contingency=OPTIONAL)
        for i in range(3):
            cli.bind("out", make_server(f"s{i}")[0].get_interface("svc"))
        assert cli.binding_controller.unbind_all("out") == 3
        assert cli.binding_controller.bound_instances("out") == []


class TestLifecycleController:
    def test_initial_state_stopped(self):
        srv, _ = make_server()
        assert srv.lifecycle_controller.state is LifecycleState.STOPPED

    def test_start_stop_hooks(self):
        srv, content = make_server()
        srv.start()
        srv.stop()
        assert content.events == ["start", "stop"]

    def test_start_idempotent(self):
        srv, content = make_server()
        srv.start()
        srv.start()
        assert content.events == ["start"]

    def test_mandatory_unbound_blocks_start(self):
        cli, _ = make_client(contingency=MANDATORY)
        with pytest.raises(IllegalLifecycleError):
            cli.start()

    def test_optional_unbound_allows_start(self):
        cli, _ = make_client(contingency=OPTIONAL)
        cli.start()
        assert cli.lifecycle_controller.is_started()

    def test_mandatory_collection_needs_one_binding(self):
        cli, _ = make_client(contingency=MANDATORY, cardinality=COLLECTION)
        with pytest.raises(IllegalLifecycleError):
            cli.start()
        cli.bind("out", make_server()[0].get_interface("svc"))
        cli.start()

    def test_failed_component_cannot_start(self):
        srv, _ = make_server()
        srv.lifecycle_controller.fail()
        with pytest.raises(IllegalLifecycleError):
            srv.start()
        srv.stop()  # resets FAILED -> STOPPED
        srv.start()

    def test_composite_starts_children_first(self):
        order = []

        class Tracker(EchoContent):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def on_start(self, component):
                order.append(self.tag)

        child = Component("child", content=Tracker("child"))
        root = Component("root", composite=True, content=Tracker("root"))
        root.content_controller.add(child)
        root.start()
        assert order == ["child", "root"]

    def test_composite_stops_parent_first(self):
        order = []

        class Tracker(EchoContent):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def on_stop(self, component):
                order.append(self.tag)

        child = Component("child", content=Tracker("child"))
        root = Component("root", composite=True, content=Tracker("root"))
        root.content_controller.add(child)
        root.start()
        root.stop()
        assert order == ["root", "child"]


class TestAttributeController:
    def test_declare_get_set(self):
        srv, content = make_server()
        ac = srv.attribute_controller
        ac.declare("port", 80)
        assert ac.get("port") == 80
        ac.set("port", 8080)
        assert ac.get("port") == 8080
        assert ("attr", "port", 8080) in content.events

    def test_undeclared_attribute_rejected(self):
        srv, _ = make_server()
        with pytest.raises(NoSuchAttributeError):
            srv.attribute_controller.get("nope")
        with pytest.raises(NoSuchAttributeError):
            srv.attribute_controller.set("nope", 1)

    def test_list_attributes(self):
        srv, _ = make_server()
        srv.attribute_controller.declare("b", 1)
        srv.attribute_controller.declare("a", 2)
        assert srv.attribute_controller.list_attributes() == ["a", "b"]


class TestContentController:
    def test_add_remove(self):
        root = Component("root", composite=True)
        child = Component("child", content=EchoContent())
        root.content_controller.add(child)
        assert child.parent is root
        assert root.content_controller.sub_components() == [child]
        root.content_controller.remove(child)
        assert child.parent is None

    def test_primitive_has_no_content_controller(self):
        prim = Component("p", content=EchoContent())
        with pytest.raises(IllegalContentError):
            prim.content_controller

    def test_self_containment_rejected(self):
        root = Component("root", composite=True)
        with pytest.raises(IllegalContentError):
            root.content_controller.add(root)

    def test_cycle_rejected(self):
        a = Component("a", composite=True)
        b = Component("b", composite=True)
        a.content_controller.add(b)
        with pytest.raises(IllegalContentError):
            b.content_controller.add(a)

    def test_double_containment_rejected(self):
        a = Component("a", composite=True)
        b = Component("b", composite=True)
        child = Component("c", content=EchoContent())
        a.content_controller.add(child)
        with pytest.raises(IllegalContentError):
            b.content_controller.add(child)

    def test_duplicate_names_rejected(self):
        root = Component("root", composite=True)
        root.content_controller.add(Component("x", content=EchoContent()))
        with pytest.raises(IllegalContentError):
            root.content_controller.add(Component("x", content=EchoContent()))

    def test_remove_started_child_rejected(self):
        root = Component("root", composite=True)
        child = Component("c", content=EchoContent())
        root.content_controller.add(child)
        child.start()
        with pytest.raises(IllegalContentError):
            root.content_controller.remove(child)

    def test_remove_failed_child_allowed(self):
        root = Component("root", composite=True)
        child = Component("c", content=EchoContent())
        root.content_controller.add(child)
        child.start()
        child.lifecycle_controller.fail()
        child.stop()
        root.content_controller.remove(child)


class TestIntrospection:
    def build_tree(self):
        root = Component("root", composite=True)
        mid = Component("mid", composite=True)
        leaf1 = Component("leaf1", content=EchoContent())
        leaf2 = Component("leaf2", content=EchoContent())
        root.content_controller.add(mid)
        root.content_controller.add(leaf1)
        mid.content_controller.add(leaf2)
        return root, mid, leaf1, leaf2

    def test_iter_components_dfs(self):
        root, mid, leaf1, leaf2 = self.build_tree()
        assert [c.name for c in iter_components(root)] == [
            "root",
            "mid",
            "leaf2",
            "leaf1",
        ]

    def test_architecture_report_renders_tree(self):
        root, *_ = self.build_tree()
        report = architecture_report(root)
        assert "root [composite, stopped]" in report
        assert "  mid [composite, stopped]" in report
        assert "    leaf2" in report

    def test_verify_clean_architecture(self):
        root, *_ = self.build_tree()
        assert verify_architecture(root) == []

    def test_verify_detects_unbound_mandatory(self):
        cli, _ = make_client(contingency=MANDATORY)
        # Bypass the start-time check to build a corrupt state.
        cli.lifecycle_controller._state = LifecycleState.STARTED
        problems = verify_architecture(cli)
        assert any("unbound" in p for p in problems)

    def test_verify_detects_binding_to_failed(self):
        srv, _ = make_server()
        cli, _ = make_client()
        cli.bind("out", srv.get_interface("svc"))
        srv.lifecycle_controller.fail()
        problems = verify_architecture_of_pair(cli, srv)
        assert any("failed component" in p for p in problems)


def verify_architecture_of_pair(a, b):
    root = Component("pair-root", composite=True)
    root.content_controller.add(a)
    root.content_controller.add(b)
    return verify_architecture(root)


class TestComponentBasics:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Component("")

    def test_duplicate_interface_rejected(self):
        comp = Component("c", interface_types=[InterfaceType("x", "s")])
        with pytest.raises(ValueError):
            comp.add_interface_type(InterfaceType("x", "s"))

    def test_get_missing_interface(self):
        comp = Component("c")
        with pytest.raises(NoSuchInterfaceError):
            comp.get_interface("ghost")

    def test_membrane_lookup(self):
        comp = Component("c", composite=True)
        assert comp.membrane.get("lifecycle-controller") is comp.lifecycle_controller
        assert comp.membrane.get("content-controller") is comp.content_controller
        with pytest.raises(KeyError):
            comp.membrane.get("unknown-controller")

    def test_extra_controller(self):
        comp = Component("c")
        marker = object()
        comp.membrane.add("custom", marker)
        assert comp.membrane.get("custom") is marker

    def test_name_controller(self):
        comp = Component("c")
        assert comp.name_controller.get_name() == "c"
        comp.name_controller.set_name("renamed")
        assert comp.name == "renamed"
        with pytest.raises(ValueError):
            comp.name_controller.set_name("")
