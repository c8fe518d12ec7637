"""Interface types and interface instances.

A Fractal component exposes *interfaces*: named access points supporting a
finite set of methods.  An :class:`InterfaceType` describes an interface
(name, signature, role, contingency, cardinality); an :class:`Interface` is
an instance of a type on a particular component.

* **Role** — ``SERVER`` interfaces accept incoming calls; ``CLIENT``
  interfaces emit outgoing calls and must be *bound* to a server interface
  before use.
* **Contingency** — a ``MANDATORY`` client interface must be bound for the
  component to start (checked by the life-cycle controller).
* **Cardinality** — a ``COLLECTION`` client interface accepts any number of
  simultaneous bindings (e.g. a load balancer's ``backends``); a
  ``SINGLETON`` accepts one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.fractal.errors import IllegalBindingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fractal.component import Component

SERVER = "server"
CLIENT = "client"
MANDATORY = "mandatory"
OPTIONAL = "optional"
SINGLETON = "singleton"
COLLECTION = "collection"


class InterfaceType:
    """Description of an interface: its name, signature and binding rules.

    ``signature`` is a free-form identifier (e.g. ``"ajp"`` or
    ``"jdbc.Driver"``); bindings are only legal between a client and a server
    interface carrying the *same* signature.  ``dynamic`` marks interfaces
    whose bindings may be changed while the component is started (the paper
    rebinds Apache only when stopped, but inserts C-JDBC backends live).
    """

    __slots__ = ("name", "signature", "role", "contingency", "cardinality", "dynamic")

    def __init__(
        self,
        name: str,
        signature: str,
        role: str = SERVER,
        contingency: str = MANDATORY,
        cardinality: str = SINGLETON,
        dynamic: bool = False,
    ) -> None:
        if role not in (SERVER, CLIENT):
            raise ValueError(f"bad role {role!r}")
        if contingency not in (MANDATORY, OPTIONAL):
            raise ValueError(f"bad contingency {contingency!r}")
        if cardinality not in (SINGLETON, COLLECTION):
            raise ValueError(f"bad cardinality {cardinality!r}")
        self.name = name
        self.signature = signature
        self.role = role
        self.contingency = contingency
        self.cardinality = cardinality
        self.dynamic = dynamic

    def is_client(self) -> bool:
        return self.role == CLIENT

    def is_server(self) -> bool:
        return self.role == SERVER

    def is_collection(self) -> bool:
        return self.cardinality == COLLECTION

    def is_mandatory(self) -> bool:
        return self.contingency == MANDATORY

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InterfaceType({self.name!r}, sig={self.signature!r}, "
            f"{self.role}, {self.contingency}, {self.cardinality})"
        )


class Interface:
    """An interface instance on a component.

    Server interfaces dispatch :meth:`invoke` calls to a *delegate* (by
    default the component's content object).  Client interfaces forward
    :meth:`invoke` to the server interface they are bound to.

    A bound singleton client resolves an operation once, to the callable
    its server interface lands on, and keeps that resolution until its
    :attr:`target` changes: the binding controller's ``bind`` and
    ``unbind`` are the only writers of ``target``, and each write drops
    every resolution, so a rebind takes effect at the next call.
    """

    __slots__ = ("component", "itype", "name", "delegate", "_target", "_resolved")

    def __init__(
        self,
        component: "Component",
        itype: InterfaceType,
        name: Optional[str] = None,
        delegate: Any = None,
    ) -> None:
        self.component = component
        self.itype = itype
        # Collection-interface instances get suffixed names (``backends-3``).
        self.name = name if name is not None else itype.name
        self.delegate = delegate
        self._target: Optional["Interface"] = None  # for singleton clients
        #: operation name -> the callable a call through ``_target`` lands on
        self._resolved: dict[str, Callable[..., Any]] = {}

    @property
    def target(self) -> Optional["Interface"]:
        """The server interface a singleton client is bound to, or None."""
        return self._target

    @target.setter
    def target(self, server: Optional["Interface"]) -> None:
        self._target = server
        self._resolved = {}

    @property
    def qualified_name(self) -> str:
        return f"{self.component.name}.{self.name}"

    def resolve(self, method: str) -> Callable[..., Any]:
        """The callable a call of ``method`` through this interface lands
        on.

        On a server interface that is the delegate's ``method``.  On a
        bound client interface it is its target's resolution, kept until
        the binding changes; resolving through an unbound client raises
        :class:`IllegalBindingError` — exactly the error a legacy system
        would surface as a connection failure.
        """
        fn = self._resolved.get(method)  # only bound clients fill it
        if fn is not None:
            return fn
        if self.itype.role == SERVER:
            if self.delegate is None:
                raise IllegalBindingError(
                    f"server interface {self.qualified_name} has no delegate"
                )
            return getattr(self.delegate, method)
        if self._target is None:
            raise IllegalBindingError(
                f"client interface {self.qualified_name} is not bound"
            )
        fn = self._resolved[method] = self._target.resolve(method)
        return fn

    def invoke(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Call ``method`` through this interface (see :meth:`resolve`)."""
        return self.resolve(method)(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bound = ""
        if self.itype.is_client():
            bound = f" -> {self.target.qualified_name}" if self.target else " (unbound)"
        return f"<Interface {self.qualified_name} [{self.itype.role}]{bound}>"
