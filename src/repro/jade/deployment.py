"""Deployment service.

"The deployment of an application is the interpretation of an ADL
description, using the Software Installation Service and the Cluster
Manager to deploy application's components on nodes." (§3.3)

:meth:`DeploymentService.deploy` turns an
:class:`~repro.fractal.adl.ArchitectureDescription` into a live component
hierarchy: it allocates one node per replica from the Cluster Manager,
triggers package installation, instantiates components through the factory
registry, expands ``replicas="N"`` specs into N components, and applies the
declared bindings (a binding whose server side is replicated fans out to
every replica — that is how an ADL wires a load balancer to its workers).
Jade's own managers are deployed the same way (§3.3); their component types
are registered unplaced, so they take no node.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.allocator import ClusterManager
from repro.cluster.installer import SoftwareInstallationService
from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.fractal.adl import (
    AdlError,
    ArchitectureDescription,
    ComponentFactoryRegistry,
    ComponentSpec,
)
from repro.fractal.component import Component
from repro.legacy.directory import Directory
from repro.simulation.kernel import SimKernel


class DeployedApplication:
    """The result of a deployment: the root composite plus lookup maps."""

    def __init__(self, root: Component, description: ArchitectureDescription):
        self.root = root
        self.description = description
        self.components: dict[str, list[Component]] = {}
        self.nodes: dict[str, Node] = {}  # component name -> its node

    def instances(self, spec_name: str) -> list[Component]:
        """All replicas deployed for an ADL component spec."""
        return list(self.components.get(spec_name, []))

    def instance(self, spec_name: str) -> Component:
        """The unique replica of a spec (raises if replicated)."""
        instances = self.instances(spec_name)
        if len(instances) != 1:
            raise KeyError(
                f"{spec_name!r} has {len(instances)} instances, expected 1"
            )
        return instances[0]

    def node_of(self, component: Component) -> Node:
        return self.nodes[component.name]

    def start(self) -> None:
        self.root.start()

    def stop(self) -> None:
        self.root.stop()


class DeploymentService:
    """Interprets ADL descriptions against the cluster."""

    def __init__(
        self,
        kernel: SimKernel,
        registry: ComponentFactoryRegistry,
        cluster: ClusterManager,
        directory: Directory,
        installer: Optional[SoftwareInstallationService] = None,
        lan: Optional[Lan] = None,
    ) -> None:
        self.kernel = kernel
        self.registry = registry
        self.cluster = cluster
        self.directory = directory
        self.installer = installer
        self.lan = lan

    # ------------------------------------------------------------------
    def deploy(
        self, description: ArchitectureDescription, **context: Any
    ) -> DeployedApplication:
        """Instantiate the architecture.  Components are created and bound
        but *not* started; call :meth:`DeployedApplication.start`.
        ``context`` is handed to every factory (a manager's factories take
        the tiers they watch and the shared inhibition lock)."""
        root = Component(description.name, composite=True)
        app = DeployedApplication(root, description)
        self._virtual_nodes: dict[str, Node] = {}
        for spec in description.components:
            self._deploy_spec(spec, root, app, context)
        for binding in description.bindings:
            self._apply_binding(binding, app)
        del self._virtual_nodes
        return app

    # ------------------------------------------------------------------
    def _deploy_spec(
        self,
        spec: ComponentSpec,
        parent: Component,
        app: DeployedApplication,
        context: dict[str, Any],
    ) -> None:
        if spec.composite:
            composite = Component(spec.name, composite=True)
            parent.content_controller.add(composite)
            app.components.setdefault(spec.name, []).append(composite)
            for child in spec.children:
                self._deploy_spec(child, composite, app, context)
            return
        placed = self.registry.placed(spec.ctype)
        for i in range(spec.replicas):
            name = spec.name if spec.replicas == 1 else f"{spec.name}{i + 1}"
            node = self._node_for(spec, i) if placed else None
            if placed and self.installer is not None and spec.package is not None:
                # Fire the installation; the simulated install time elapses
                # as the kernel runs (before any server starts serving).
                self.installer.install(spec.package, node)
            component = self.registry.create(
                spec.ctype,
                name,
                dict(spec.attributes),
                kernel=self.kernel,
                node=node,
                directory=self.directory,
                lan=self.lan,
                **context,
            )
            parent.content_controller.add(component)
            app.components.setdefault(spec.name, []).append(component)
            if placed:
                app.nodes[name] = node

    def _node_for(self, spec: ComponentSpec, replica_idx: int) -> Node:
        if spec.virtual_node is not None:
            key = f"{spec.virtual_node}:{replica_idx}"
            node = self._virtual_nodes.get(key)
            if node is None:
                node = self.cluster.allocate(f"vnode:{key}")
                self._virtual_nodes[key] = node
            return node
        return self.cluster.allocate(f"adl:{spec.name}[{replica_idx}]")

    # ------------------------------------------------------------------
    def _apply_binding(self, binding, app: DeployedApplication) -> None:
        clients = app.instances(binding.client_component)
        servers = app.instances(binding.server_component)
        if not clients or not servers:
            raise AdlError(
                f"binding {binding.client} -> {binding.server}: "
                "missing deployed instances"
            )
        for client in clients:
            itype = client.interface_type(binding.client_interface)
            if itype is None:
                raise AdlError(
                    f"{client.name} has no interface {binding.client_interface!r}"
                )
            if len(servers) > 1 and not itype.is_collection():
                raise AdlError(
                    f"binding {binding.client} -> {binding.server}: singleton "
                    f"client interface cannot bind {len(servers)} replicas"
                )
            for server in servers:
                client.bind(
                    binding.client_interface,
                    server.get_interface(binding.server_interface),
                )
