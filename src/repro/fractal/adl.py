"""Architecture Description Language (ADL).

"The architecture of an application is described using an Architecture
Description Language (ADL) ... This description is an XML document which
details the architectural structure of the application to deploy on the
cluster, e.g. which software resources compose the multi-tier J2EE
application, how many replicas are created for each tier, how are the tiers
bound together" (§3.3).

The ADL is *declarative*: :func:`parse_adl` produces an
:class:`ArchitectureDescription` (a tree of specs); the Jade deployment
service (:mod:`repro.jade.deployment`) interprets it against a component
factory registry, the Cluster Manager and the Software Installation Service.

Example document::

    <definition name="rubis-j2ee">
      <component name="web" composite="true">
        <component name="apache" type="apache" replicas="2" package="apache-httpd">
          <attribute name="port" value="80"/>
        </component>
      </component>
      <component name="tomcat" type="tomcat" replicas="2" package="tomcat"/>
      <binding client="apache.ajp" server="tomcat.ajp"/>
    </definition>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Callable, Iterator, Optional

from repro.fractal.component import Component


class AdlError(ValueError):
    """Malformed ADL document or unresolvable reference."""


class ComponentSpec:
    """Declarative description of one component (possibly replicated)."""

    def __init__(
        self,
        name: str,
        ctype: Optional[str] = None,
        composite: bool = False,
        replicas: int = 1,
        package: Optional[str] = None,
        virtual_node: Optional[str] = None,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[list["ComponentSpec"]] = None,
    ) -> None:
        if replicas < 1:
            raise AdlError(f"component {name!r}: replicas must be >= 1")
        if composite and ctype is not None:
            raise AdlError(f"component {name!r}: composite cannot have a type")
        if not composite and ctype is None:
            raise AdlError(f"component {name!r}: primitive requires a type")
        self.name = name
        self.ctype = ctype
        self.composite = composite
        self.replicas = replicas
        self.package = package
        self.virtual_node = virtual_node
        self.attributes = dict(attributes or {})
        self.children = list(children or [])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "composite" if self.composite else self.ctype
        return f"ComponentSpec({self.name!r}, {kind}, x{self.replicas})"


class BindingSpec:
    """Declarative binding ``client component.interface`` → ``server``."""

    def __init__(self, client: str, server: str) -> None:
        for ref, label in ((client, "client"), (server, "server")):
            if ref.count(".") != 1:
                raise AdlError(
                    f"{label} reference {ref!r} must be 'component.interface'"
                )
        self.client = client
        self.server = server

    @property
    def client_component(self) -> str:
        return self.client.split(".")[0]

    @property
    def client_interface(self) -> str:
        return self.client.split(".")[1]

    @property
    def server_component(self) -> str:
        return self.server.split(".")[0]

    @property
    def server_interface(self) -> str:
        return self.server.split(".")[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BindingSpec({self.client} -> {self.server})"


class ArchitectureDescription:
    """A parsed ADL document: component tree plus bindings."""

    def __init__(
        self,
        name: str,
        components: list[ComponentSpec],
        bindings: list[BindingSpec],
    ) -> None:
        self.name = name
        self.components = components
        self.bindings = bindings
        self._validate()

    def iter_specs(self) -> Iterator[ComponentSpec]:
        def walk(specs: list[ComponentSpec]) -> Iterator[ComponentSpec]:
            for spec in specs:
                yield spec
                yield from walk(spec.children)

        return walk(self.components)

    def spec(self, name: str) -> ComponentSpec:
        for s in self.iter_specs():
            if s.name == name:
                return s
        raise AdlError(f"no component spec named {name!r}")

    def _validate(self) -> None:
        names = [s.name for s in self.iter_specs()]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise AdlError(f"duplicate component names: {sorted(dupes)}")
        known = set(names)
        for b in self.bindings:
            for comp in (b.client_component, b.server_component):
                if comp not in known:
                    raise AdlError(
                        f"binding {b.client} -> {b.server} references "
                        f"unknown component {comp!r}"
                    )


class AdlParser:
    """Parses the XML ADL dialect into an :class:`ArchitectureDescription`."""

    def parse(self, text: str) -> ArchitectureDescription:
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise AdlError(f"invalid XML: {exc}") from exc
        if root.tag != "definition":
            raise AdlError(f"root element must be <definition>, got <{root.tag}>")
        name = root.get("name")
        if not name:
            raise AdlError("<definition> requires a name attribute")
        components = [
            self._parse_component(el) for el in root.findall("component")
        ]
        bindings = [self._parse_binding(el) for el in root.findall("binding")]
        return ArchitectureDescription(name, components, bindings)

    def _parse_component(self, el: ET.Element) -> ComponentSpec:
        name = el.get("name")
        if not name:
            raise AdlError("<component> requires a name attribute")
        composite = el.get("composite", "false").lower() in ("true", "1", "yes")
        replicas_raw = el.get("replicas", "1")
        try:
            replicas = int(replicas_raw)
        except ValueError:
            raise AdlError(
                f"component {name!r}: bad replicas value {replicas_raw!r}"
            ) from None
        attributes = {}
        for attr in el.findall("attribute"):
            aname, avalue = attr.get("name"), attr.get("value")
            if aname is None or avalue is None:
                raise AdlError(
                    f"component {name!r}: <attribute> requires name and value"
                )
            attributes[aname] = avalue
        vnode_el = el.find("virtual-node")
        virtual_node = vnode_el.get("name") if vnode_el is not None else None
        children = [self._parse_component(c) for c in el.findall("component")]
        if children and not composite:
            raise AdlError(f"component {name!r}: only composites nest components")
        return ComponentSpec(
            name=name,
            ctype=el.get("type"),
            composite=composite,
            replicas=replicas,
            package=el.get("package"),
            virtual_node=virtual_node,
            attributes=attributes,
            children=children,
        )

    def _parse_binding(self, el: ET.Element) -> BindingSpec:
        client, server = el.get("client"), el.get("server")
        if not client or not server:
            raise AdlError("<binding> requires client and server attributes")
        return BindingSpec(client, server)


def parse_adl(text: str) -> ArchitectureDescription:
    """Parse an ADL XML document (module-level convenience)."""
    return AdlParser().parse(text)


Factory = Callable[..., Component]


class ComponentFactoryRegistry:
    """Maps ADL ``type`` names to component factories.

    A factory is called as ``factory(name, attributes, **context)`` and must
    return a started-able :class:`Component`.  The deployment service passes
    context keys such as ``node`` (the allocated cluster node, None for an
    unplaced type) and ``kernel``.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Factory] = {}
        self._unplaced: set[str] = set()

    def register(self, type_name: str, factory: Factory, placed: bool = True) -> None:
        """``placed=False`` registers a type whose components take no
        cluster node (Jade's own management components)."""
        if type_name in self._factories:
            raise ValueError(f"factory for type {type_name!r} already registered")
        self._factories[type_name] = factory
        if not placed:
            self._unplaced.add(type_name)

    def placed(self, type_name: str) -> bool:
        return type_name not in self._unplaced

    def create(
        self, type_name: str, name: str, attributes: dict[str, Any], **context: Any
    ) -> Component:
        try:
            factory = self._factories[type_name]
        except KeyError:
            raise AdlError(f"no factory registered for type {type_name!r}") from None
        return factory(name, attributes, **context)
