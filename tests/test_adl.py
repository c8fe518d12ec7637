"""Unit tests for the ADL parser and factory registry."""

import pytest

from repro.fractal.adl import (
    AdlError,
    BindingSpec,
    ComponentFactoryRegistry,
    ComponentSpec,
    parse_adl,
)
from repro.fractal.component import Component

GOOD = """
<definition name="app">
  <component name="web" composite="true">
    <component name="apache" type="apache" replicas="2" package="apache-httpd">
      <attribute name="port" value="80"/>
    </component>
  </component>
  <component name="tomcat" type="tomcat">
    <virtual-node name="vn1"/>
  </component>
  <binding client="apache.ajp" server="tomcat.ajp"/>
</definition>
"""


class TestParser:
    def test_parses_structure(self):
        d = parse_adl(GOOD)
        assert d.name == "app"
        web = d.spec("web")
        assert web.composite and len(web.children) == 1
        apache = d.spec("apache")
        assert apache.ctype == "apache"
        assert apache.replicas == 2
        assert apache.package == "apache-httpd"
        assert apache.attributes == {"port": "80"}
        assert d.spec("tomcat").virtual_node == "vn1"
        assert len(d.bindings) == 1

    def test_binding_accessors(self):
        b = parse_adl(GOOD).bindings[0]
        assert (b.client_component, b.client_interface) == ("apache", "ajp")
        assert (b.server_component, b.server_interface) == ("tomcat", "ajp")

    def test_invalid_xml(self):
        with pytest.raises(AdlError):
            parse_adl("<definition name='x'")

    def test_wrong_root_element(self):
        with pytest.raises(AdlError):
            parse_adl("<app name='x'/>")

    def test_missing_definition_name(self):
        with pytest.raises(AdlError):
            parse_adl("<definition/>")

    def test_component_without_name(self):
        with pytest.raises(AdlError):
            parse_adl('<definition name="x"><component type="t"/></definition>')

    def test_primitive_without_type(self):
        with pytest.raises(AdlError):
            parse_adl('<definition name="x"><component name="c"/></definition>')

    def test_composite_with_type_rejected(self):
        with pytest.raises(AdlError):
            ComponentSpec("c", ctype="t", composite=True)

    def test_bad_replicas_value(self):
        with pytest.raises(AdlError):
            parse_adl(
                '<definition name="x">'
                '<component name="c" type="t" replicas="many"/></definition>'
            )
        with pytest.raises(AdlError):
            ComponentSpec("c", ctype="t", replicas=0)

    def test_attribute_requires_name_and_value(self):
        with pytest.raises(AdlError):
            parse_adl(
                '<definition name="x"><component name="c" type="t">'
                '<attribute name="only-name"/></component></definition>'
            )

    def test_children_under_primitive_rejected(self):
        with pytest.raises(AdlError):
            parse_adl(
                '<definition name="x"><component name="c" type="t">'
                '<component name="inner" type="t"/></component></definition>'
            )

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(AdlError):
            parse_adl(
                '<definition name="x">'
                '<component name="c" type="t"/>'
                '<component name="c" type="t"/></definition>'
            )

    def test_binding_to_unknown_component(self):
        with pytest.raises(AdlError):
            parse_adl(
                '<definition name="x"><component name="c" type="t"/>'
                '<binding client="c.a" server="ghost.b"/></definition>'
            )

    def test_binding_reference_format(self):
        with pytest.raises(AdlError):
            BindingSpec("no-dot", "c.itf")
        with pytest.raises(AdlError):
            BindingSpec("c.itf", "too.many.dots")

    def test_binding_missing_attributes(self):
        with pytest.raises(AdlError):
            parse_adl(
                '<definition name="x"><component name="c" type="t"/>'
                '<binding client="c.a"/></definition>'
            )

    def test_iter_specs_covers_nested(self):
        d = parse_adl(GOOD)
        assert sorted(s.name for s in d.iter_specs()) == ["apache", "tomcat", "web"]

    def test_spec_lookup_missing(self):
        with pytest.raises(AdlError):
            parse_adl(GOOD).spec("ghost")


class TestFactoryRegistry:
    def test_create_through_registry(self):
        registry = ComponentFactoryRegistry()
        registry.register("widget", lambda name, attrs, **ctx: Component(name))
        comp = registry.create("widget", "w1", {})
        assert comp.name == "w1"

    def test_unknown_type(self):
        with pytest.raises(AdlError):
            ComponentFactoryRegistry().create("ghost", "g", {})

    def test_duplicate_registration_rejected(self):
        registry = ComponentFactoryRegistry()
        registry.register("t", lambda *a, **k: Component("x"))
        with pytest.raises(ValueError):
            registry.register("t", lambda *a, **k: Component("y"))

    def test_context_forwarded(self):
        seen = {}

        def factory(name, attrs, **ctx):
            seen.update(ctx)
            return Component(name)

        registry = ComponentFactoryRegistry()
        registry.register("t", factory)
        registry.create("t", "c", {}, node="N", kernel="K")
        assert seen == {"node": "N", "kernel": "K"}
