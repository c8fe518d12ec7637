"""Architecture introspection.

"The framework provides an introspection interface that allows observing
managed components" (§3.2): an administration program can walk the component
tree, inspect bindings and attributes, and check global consistency.  These
helpers implement that observation surface over any component hierarchy.
"""

from __future__ import annotations

from typing import Iterator

from repro.fractal.component import Component
from repro.fractal.controllers import LifecycleState


def iter_components(root: Component) -> Iterator[Component]:
    """Depth-first traversal of ``root`` and all nested sub-components.

    Components referenced through *sharing* are visited once (the first
    time they are reached).
    """
    seen: set[int] = set()

    def walk(comp: Component) -> Iterator[Component]:
        if id(comp) in seen:
            return
        seen.add(id(comp))
        yield comp
        if comp.is_composite():
            for sub in comp.content_controller.sub_components():
                yield from walk(sub)

    return walk(root)


def architecture_report(root: Component, indent: str = "") -> str:
    """Human-readable tree of the architecture: components, states,
    attributes and bindings — the §3.2 'inspect the overall J2EE
    infrastructure' capability."""
    lines: list[str] = []
    visited: set[int] = set()

    def render(comp: Component, depth: int) -> None:
        pad = indent + "  " * depth
        kind = "composite" if comp.is_composite() else "primitive"
        state = comp.lifecycle_controller.state.value
        if id(comp) in visited:
            # A shared reference: point at it, do not expand again.
            lines.append(f"{pad}{comp.name} [shared ref]")
            return
        visited.add(id(comp))
        lines.append(f"{pad}{comp.name} [{kind}, {state}]")
        attrs = comp.attribute_controller.as_dict()
        if attrs:
            rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
            lines.append(f"{pad}  attributes: {rendered}")
        for inst, server in sorted(comp.binding_controller.list_bindings().items()):
            lines.append(f"{pad}  {inst} -> {server.qualified_name}")
        if comp.is_composite():
            for sub in comp.content_controller.sub_components():
                render(sub, depth + 1)

    render(root, 0)
    return "\n".join(lines)


def verify_architecture(root: Component) -> list[str]:
    """Check global consistency; returns a list of violation descriptions
    (empty means the architecture is sound).

    Invariants checked:

    * parent/child links are mutually consistent;
    * component names are unique within a composite;
    * every *started* component has all mandatory client interfaces bound;
    * no binding dangles on a component in the FAILED state.
    """
    problems: list[str] = []
    for comp in iter_components(root):
        if comp.is_composite():
            names = [s.name for s in comp.content_controller.sub_components()]
            if len(set(names)) != len(names):
                problems.append(f"{comp.name}: duplicate sub-component names")
            for sub in comp.content_controller.sub_components():
                if sub.parent is not comp and comp not in sub.shared_parents:
                    problems.append(
                        f"{sub.name}: parent link points to "
                        f"{sub.parent.name if sub.parent else None}, "
                        f"expected {comp.name}"
                    )
        lc = comp.lifecycle_controller
        bc = comp.binding_controller
        if lc.state is LifecycleState.STARTED:
            for itype in comp.client_interface_types():
                if itype.is_mandatory() and not bc.bound_instances(itype.name):
                    problems.append(
                        f"{comp.name}: started with mandatory interface "
                        f"{itype.name!r} unbound"
                    )
        for inst, server in bc.list_bindings().items():
            if server.component.lifecycle_controller.state is LifecycleState.FAILED:
                problems.append(
                    f"{comp.name}.{inst}: bound to failed component "
                    f"{server.component.name}"
                )
    return problems
