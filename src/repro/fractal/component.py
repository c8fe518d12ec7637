"""Fractal components and membranes.

A :class:`Component` is a run-time entity with a distinct identity, a set of
interfaces, and a *membrane* of controllers.  A **primitive** component
encapsulates an executable content object (in Jade: the wrapper around a
legacy program); a **composite** component is an assembly of sub-components
(in Jade: a tier, the whole J2EE infrastructure, or an autonomic manager).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.fractal.controllers import (
    AttributeController,
    BindingController,
    ContentController,
    LifecycleController,
    NameController,
)
from repro.fractal.errors import NoSuchInterfaceError
from repro.fractal.interfaces import Interface, InterfaceType


class Membrane:
    """The set of controllers attached to a component.

    Fractal allows arbitrary, user-defined controller classes; extra
    controllers can be attached under a name with :meth:`add`.
    """

    def __init__(self, component: "Component") -> None:
        self.name_controller = NameController(component)
        self.lifecycle_controller = LifecycleController(component)
        self.attribute_controller = AttributeController(component)
        self.binding_controller = BindingController(component)
        self.content_controller: Optional[ContentController] = None
        self._extra: dict[str, Any] = {}

    def add(self, name: str, controller: Any) -> None:
        self._extra[name] = controller

    def get(self, name: str) -> Any:
        builtin = {
            "name-controller": self.name_controller,
            "lifecycle-controller": self.lifecycle_controller,
            "attribute-controller": self.attribute_controller,
            "binding-controller": self.binding_controller,
            "content-controller": self.content_controller,
        }
        if name in builtin and builtin[name] is not None:
            return builtin[name]
        if name in self._extra:
            return self._extra[name]
        raise KeyError(name)


class Component:
    """A Fractal component (primitive or composite)."""

    def __init__(
        self,
        name: str,
        interface_types: Iterable[InterfaceType] = (),
        content: Any = None,
        composite: bool = False,
    ) -> None:
        if not name:
            raise ValueError("component name cannot be empty")
        self.name = name
        self.content = content
        self._composite = composite
        self.parent: Optional["Component"] = None
        #: composites holding this component as a *shared* sub-component
        #: (Fractal composition-with-sharing; used for the §3.2 alternate
        #: points of view, e.g. the per-node topology view)
        self.shared_parents: list["Component"] = []
        self._itypes: dict[str, InterfaceType] = {}
        self._interfaces: dict[str, Interface] = {}
        self.membrane = Membrane(self)
        if composite:
            self.membrane.content_controller = ContentController(self)
        for itype in interface_types:
            self.add_interface_type(itype)
        if content is not None and hasattr(content, "attached"):
            content.attached(self)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_composite(self) -> bool:
        return self._composite

    def is_primitive(self) -> bool:
        return not self._composite

    def add_interface_type(self, itype: InterfaceType) -> Interface:
        """Declare an interface on the component and instantiate it.

        Server interfaces delegate to the content object by default.
        """
        if itype.name in self._itypes:
            raise ValueError(
                f"{self.name} already has an interface named {itype.name!r}"
            )
        self._itypes[itype.name] = itype
        delegate = self.content if itype.is_server() else None
        itf = Interface(self, itype, delegate=delegate)
        self._interfaces[itype.name] = itf
        return itf

    def interface_type(self, name: str) -> Optional[InterfaceType]:
        return self._itypes.get(name)

    def interface_types(self) -> list[InterfaceType]:
        return list(self._itypes.values())

    def client_interface_types(self) -> list[InterfaceType]:
        return [t for t in self._itypes.values() if t.is_client()]

    def get_interface(self, name: str) -> Interface:
        try:
            return self._interfaces[name]
        except KeyError:
            raise NoSuchInterfaceError(self.name, name) from None

    def interfaces(self) -> dict[str, Interface]:
        return dict(self._interfaces)

    # ------------------------------------------------------------------
    # Controller shortcuts (the Fractal `getFcInterface("...")` idiom)
    # ------------------------------------------------------------------
    @property
    def name_controller(self) -> NameController:
        return self.membrane.name_controller

    @property
    def lifecycle_controller(self) -> LifecycleController:
        return self.membrane.lifecycle_controller

    @property
    def attribute_controller(self) -> AttributeController:
        return self.membrane.attribute_controller

    @property
    def binding_controller(self) -> BindingController:
        return self.membrane.binding_controller

    @property
    def content_controller(self) -> ContentController:
        cc = self.membrane.content_controller
        if cc is None:
            from repro.fractal.errors import IllegalContentError

            raise IllegalContentError(f"{self.name} is not a composite")
        return cc

    # ------------------------------------------------------------------
    # Management-friendly conveniences (the paper's §5.1 API style:
    # Apache1.stop(); Apache1.unbind("ajp-itf"); Apache1.bind(...); ...)
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.lifecycle_controller.start()

    def stop(self) -> None:
        self.lifecycle_controller.stop()

    def bind(self, itf_name: str, server: Interface) -> str:
        return self.binding_controller.bind(itf_name, server)

    def unbind(self, itf_name: str) -> None:
        self.binding_controller.unbind(itf_name)

    def set_attr(self, name: str, value: Any) -> None:
        self.attribute_controller.set(name, value)

    def get_attr(self, name: str) -> Any:
        return self.attribute_controller.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "composite" if self._composite else "primitive"
        state = self.lifecycle_controller.state.value
        return f"<Component {self.name} [{kind}, {state}]>"
