"""Fractal controllers.

"In order to allow for well scoped dynamic reconfiguration, components in
Fractal can be endowed with controllers, which provide access to a component
internals" (§3.1).  We implement the four controller kinds the paper lists —
attribute, binding, content and life-cycle — plus a name controller.

Content objects (the wrapper implementations) may define optional hooks the
controllers invoke, which is where legacy-specific behaviour lives:

* ``on_start(component)`` / ``on_stop(component)`` — life-cycle controller;
* ``on_bind(component, name, server_itf)`` / ``on_unbind(component, name)``
  — binding controller;
* ``on_attribute_changed(component, name, value)`` — attribute controller.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from repro.fractal.errors import (
    IllegalBindingError,
    IllegalContentError,
    IllegalLifecycleError,
    NoSuchAttributeError,
    NoSuchInterfaceError,
)
from repro.fractal.interfaces import Interface

if TYPE_CHECKING:  # pragma: no cover
    from repro.fractal.component import Component


class LifecycleState(enum.Enum):
    STOPPED = "stopped"
    STARTED = "started"
    FAILED = "failed"


class Controller:
    """Base class: a controller belongs to one component's membrane."""

    def __init__(self, component: "Component") -> None:
        self.component = component

    def _hook(self, name: str, *args: Any) -> None:
        content = self.component.content
        fn = getattr(content, name, None)
        if fn is not None:
            fn(self.component, *args)


class NameController(Controller):
    """Exposes the component's distinct identity."""

    def get_name(self) -> str:
        return self.component.name

    def set_name(self, name: str) -> None:
        if not name:
            raise ValueError("component name cannot be empty")
        self.component.name = name


class LifecycleController(Controller):
    """Explicit control over component execution (start/stop/state).

    Starting requires every *mandatory* client interface to be bound
    (singleton: bound once; collection: at least one live binding) — the
    Fractal start-time consistency rule.  Starting a composite recursively
    starts its sub-components (children first, so servers come up before the
    balancers that point at them); stopping is the reverse.
    """

    def __init__(self, component: "Component") -> None:
        super().__init__(component)
        self._state = LifecycleState.STOPPED

    @property
    def state(self) -> LifecycleState:
        return self._state

    def is_started(self) -> bool:
        return self._state is LifecycleState.STARTED

    def start(self) -> None:
        if self._state is LifecycleState.STARTED:
            return  # idempotent, like re-running a start script
        if self._state is LifecycleState.FAILED:
            raise IllegalLifecycleError(
                f"{self.component.name}: cannot start a failed component; repair it"
            )
        self._check_mandatory_bindings()
        if self.component.is_composite():
            for sub in self.component.content_controller.sub_components():
                sub.lifecycle_controller.start()
        self._hook("on_start")
        self._state = LifecycleState.STARTED

    def stop(self) -> None:
        if self._state is LifecycleState.STOPPED:
            return
        if self._state is LifecycleState.FAILED:
            self._state = LifecycleState.STOPPED
            return
        self._hook("on_stop")
        if self.component.is_composite():
            for sub in reversed(self.component.content_controller.sub_components()):
                sub.lifecycle_controller.stop()
        self._state = LifecycleState.STOPPED

    def fail(self) -> None:
        """Mark the component failed (used by failure detection); the content
        is *not* consulted — the legacy process is assumed gone."""
        self._state = LifecycleState.FAILED

    def _check_mandatory_bindings(self) -> None:
        bc = self.component.binding_controller
        for itype in self.component.client_interface_types():
            if not itype.is_mandatory():
                continue
            if not bc.bound_instances(itype.name):
                raise IllegalLifecycleError(
                    f"{self.component.name}: mandatory client interface "
                    f"{itype.name!r} is unbound"
                )


class AttributeController(Controller):
    """Getter/setter access to the component's configurable properties.

    Attributes are declared with :meth:`declare`; setting one invokes the
    content hook, which is where wrappers rewrite the legacy configuration
    file (e.g. the Apache ``port`` attribute is reflected into
    ``httpd.conf`` — §3.2).
    """

    def __init__(self, component: "Component") -> None:
        super().__init__(component)
        self._attributes: dict[str, Any] = {}

    def declare(self, name: str, value: Any = None) -> None:
        """Declare an attribute with an initial value (no hook fired)."""
        self._attributes[name] = value

    def list_attributes(self) -> list[str]:
        return sorted(self._attributes)

    def has_attribute(self, name: str) -> bool:
        return name in self._attributes

    def get(self, name: str) -> Any:
        try:
            return self._attributes[name]
        except KeyError:
            raise NoSuchAttributeError(self.component.name, name) from None

    def set(self, name: str, value: Any) -> None:
        if name not in self._attributes:
            raise NoSuchAttributeError(self.component.name, name)
        self._attributes[name] = value
        self._hook("on_attribute_changed", name, value)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._attributes)


class BindingController(Controller):
    """Binds/unbinds the component's client interfaces (§3.1).

    Singleton client interfaces hold one binding under the interface name;
    collection interfaces hold any number under suffixed instance names
    (``backends-0``, ``backends-1``...).  Binding a *static* interface while
    the component is started raises — the paper's wrappers stop Apache before
    rebinding it; interfaces created with ``dynamic=True`` (C-JDBC backends)
    may be rebound live.  ``bind`` and ``unbind`` are the only writers
    of a singleton client's :attr:`~repro.fractal.interfaces.Interface.target`,
    and each write drops the operations that interface had resolved.
    """

    def __init__(self, component: "Component") -> None:
        super().__init__(component)
        # instance name -> server Interface
        self._bindings: dict[str, Interface] = {}
        self._counter: dict[str, int] = {}

    # ------------------------------------------------------------------
    def list_bindings(self) -> dict[str, Interface]:
        return dict(self._bindings)

    def lookup(self, name: str) -> Optional[Interface]:
        """The server interface bound under ``name`` (instance name), or
        None."""
        return self._bindings.get(name)

    def bound_instances(self, itf_name: str) -> list[str]:
        """Instance names of live bindings of client interface
        ``itf_name``."""
        base = itf_name
        return sorted(
            n for n in self._bindings if n == base or n.startswith(base + "-")
        )

    def bound_servers(self, itf_name: str) -> list[Interface]:
        return [self._bindings[n] for n in self.bound_instances(itf_name)]

    # ------------------------------------------------------------------
    def bind(self, itf_name: str, server: Interface) -> str:
        """Bind client interface ``itf_name`` to ``server``.

        For collection interfaces ``itf_name`` may be the base name (an
        instance name is generated) or an explicit instance name.  Returns
        the instance name under which the binding is recorded.
        """
        base, _ = self._split(itf_name)
        itype = self._client_type(base)
        if not server.itype.is_server():
            raise IllegalBindingError(
                f"{server.qualified_name} is not a server interface"
            )
        if itype.signature != server.itype.signature:
            raise IllegalBindingError(
                f"signature mismatch: {self.component.name}.{base} is "
                f"{itype.signature!r}, {server.qualified_name} is "
                f"{server.itype.signature!r}"
            )
        self._check_dynamic(itype, "bind")
        if itype.is_collection():
            if itf_name == base:
                n = self._counter.get(base, 0)
                self._counter[base] = n + 1
                instance = f"{base}-{n}"
            else:
                instance = itf_name
            if instance in self._bindings:
                raise IllegalBindingError(
                    f"{self.component.name}.{instance} is already bound"
                )
        else:
            instance = base
            if instance in self._bindings:
                raise IllegalBindingError(
                    f"{self.component.name}.{instance} is already bound"
                )
        self._bindings[instance] = server
        client_itf = self.component.get_interface(base)
        if not itype.is_collection():
            client_itf.target = server
        self._hook("on_bind", instance, server)
        return instance

    def unbind(self, name: str) -> None:
        """Remove the binding recorded under instance name ``name``."""
        base, _ = self._split(name)
        itype = self._client_type(base)
        self._check_dynamic(itype, "unbind")
        if name not in self._bindings:
            raise IllegalBindingError(
                f"{self.component.name}.{name} is not bound"
            )
        self._hook("on_unbind", name)
        del self._bindings[name]
        if not itype.is_collection():
            self.component.get_interface(base).target = None

    def unbind_all(self, itf_name: str) -> int:
        """Unbind every instance of client interface ``itf_name``."""
        instances = self.bound_instances(itf_name)
        for name in instances:
            self.unbind(name)
        return len(instances)

    # ------------------------------------------------------------------
    def _split(self, name: str) -> tuple[str, Optional[str]]:
        """``backends-3`` -> (``backends``, ``3``) when ``backends`` is a
        known collection interface; otherwise the name is the base."""
        if "-" in name:
            base, suffix = name.rsplit("-", 1)
            try:
                itype = self._client_type(base)
            except NoSuchInterfaceError:
                pass
            else:
                if itype.is_collection():
                    return base, suffix
        return name, None

    def _client_type(self, base: str):
        itype = self.component.interface_type(base)
        if itype is None:
            raise NoSuchInterfaceError(self.component.name, base)
        if not itype.is_client():
            raise IllegalBindingError(
                f"{self.component.name}.{base} is a server interface; "
                "only client interfaces can be bound"
            )
        return itype

    def _check_dynamic(self, itype, op: str) -> None:
        lc = self.component.lifecycle_controller
        if lc.is_started() and not itype.dynamic:
            raise IllegalBindingError(
                f"cannot {op} static interface {self.component.name}."
                f"{itype.name} while started; stop the component first"
            )


class ContentController(Controller):
    """Lists, adds and removes sub-components of a composite (§3.1).

    Sub-components can be *added* at any time (that is how a replica joins
    the running J2EE composite) but can only be *removed* when stopped or
    failed, so a live server is never silently dropped from the
    architecture.
    """

    def __init__(self, component: "Component") -> None:
        super().__init__(component)
        self._subs: list["Component"] = []

    def sub_components(self) -> list["Component"]:
        return list(self._subs)

    def has_sub_component(self, name: str) -> bool:
        return any(sub.name == name for sub in self._subs)

    def add(self, sub: "Component", shared: bool = False) -> None:
        """Add ``sub`` to the composite.

        With ``shared=True`` the component may already live elsewhere: it
        becomes a *shared* sub-component (Fractal composition-with-sharing
        — how §3.2's alternative points of view, such as the per-node
        topology view, reference the same components as the middleware
        view).
        """
        if sub is self.component:
            raise IllegalContentError("a composite cannot contain itself")
        # Reject cycles: sub must not be an ancestor of this composite.
        ancestor = self.component.parent
        while ancestor is not None:
            if ancestor is sub:
                raise IllegalContentError(
                    f"adding {sub.name} into {self.component.name} creates a cycle"
                )
            ancestor = ancestor.parent
        if self.has_sub_component(sub.name):
            raise IllegalContentError(
                f"{self.component.name} already contains a component "
                f"named {sub.name!r}"
            )
        if shared:
            if self.component in sub.shared_parents:
                raise IllegalContentError(
                    f"{sub.name} is already shared into {self.component.name}"
                )
            self._subs.append(sub)
            sub.shared_parents.append(self.component)
            return
        if sub.parent is not None:
            raise IllegalContentError(
                f"{sub.name} is already contained in {sub.parent.name}"
            )
        self._subs.append(sub)
        sub.parent = self.component

    def remove(self, sub: "Component") -> None:
        if sub not in self._subs:
            raise IllegalContentError(
                f"{sub.name} is not a sub-component of {self.component.name}"
            )
        if self.component in sub.shared_parents:
            # Dropping a shared reference never touches the component's
            # life cycle: it keeps running in its primary composite.
            self._subs.remove(sub)
            sub.shared_parents.remove(self.component)
            return
        if sub.lifecycle_controller.is_started():
            raise IllegalContentError(
                f"cannot remove started component {sub.name}; stop it first"
            )
        self._subs.remove(sub)
        sub.parent = None
