"""L4-switch wrapper.

The switch is hardware: it has no node, no filesystem and no process.  The
wrapper still presents the uniform component interface — which is the whole
point: "adding or removing a servlet server component is done in the same
way as adding or removing a database" (§7), and likewise managing a
hardware switch looks exactly like managing Apache.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.network import Lan
from repro.fractal.component import Component
from repro.fractal.interfaces import (
    CLIENT,
    COLLECTION,
    OPTIONAL,
    SERVER,
    Interface,
    InterfaceType,
)
from repro.legacy.directory import Directory
from repro.legacy.l4switch import L4Switch
from repro.simulation.kernel import SimKernel
from repro.wrappers.base import WrapperError


class L4SwitchWrapper:
    """Content object for the L4 switch component."""

    startup_time_s = 0.0

    def __init__(
        self,
        kernel: SimKernel,
        directory: Directory,
        lan: Optional[Lan] = None,
    ) -> None:
        self.kernel = kernel
        self.directory = directory
        self.lan = lan
        self.component: Optional[Component] = None
        self.server: Optional[L4Switch] = None
        self._active = False

    def attached(self, component: Component) -> None:
        self.component = component
        self.server = L4Switch(self.kernel, component.name, self.directory, self.lan)

    # -- uniform hooks ----------------------------------------------------
    def on_start(self, component: Component) -> None:
        self._active = True

    def on_stop(self, component: Component) -> None:
        self._active = False

    def on_bind(self, component: Component, instance: str, server_itf: Interface) -> None:
        peer = server_itf.delegate
        host, port = peer.endpoint(server_itf.name)
        assert self.server is not None
        self.server.add_endpoint(host, port)

    def on_unbind(self, component: Component, instance: str) -> None:
        # The endpoint to drop is recorded in the binding controller.
        assert self.component is not None and self.server is not None
        server_itf = self.component.binding_controller.lookup(instance)
        assert server_itf is not None
        peer = server_itf.delegate
        host, port = peer.endpoint(server_itf.name)
        self.server.remove_endpoint(host, port)

    # -- wrapper contract ---------------------------------------------------
    @property
    def running(self) -> bool:
        return self._active

    def endpoint(self, itf_name: str) -> tuple[str, int]:
        raise WrapperError("the L4 switch has no host endpoint; clients hit its VIP")


def make_l4switch_component(
    name: str,
    attributes: Optional[dict[str, Any]] = None,
    *,
    kernel: SimKernel,
    directory: Directory,
    lan: Optional[Lan] = None,
    **_: Any,
) -> Component:
    """Factory for L4 switch components (ADL type ``l4switch``).

    Interfaces: ``http`` (server, the virtual IP clients connect to) and
    ``web`` (client collection, dynamic — ports are re-patched live).
    """
    wrapper = L4SwitchWrapper(kernel, directory, lan)
    component = Component(
        name,
        interface_types=[
            InterfaceType("http", "http", role=SERVER),
            InterfaceType(
                "web",
                "http",
                role=CLIENT,
                # Optional: the switch hardware is operational even before
                # any port is patched to a web server.
                contingency=OPTIONAL,
                cardinality=COLLECTION,
                dynamic=True,
            ),
        ],
        content=wrapper,
    )
    return component
