"""Software Installation Service.

"A Software Installation Service component allows retrieving the
encapsulated software resources involved in the multi-tier J2EE application
(e.g., Apache Web server software, MySQL database server software, etc.) and
installing them on nodes of the cluster." (§3.3)

Packages live in a repository; installing one copies its files into the
target node's filesystem and takes simulated time (fixed setup cost plus the
LAN transfer time of the package archive).  The installation delay is part
of the reconfiguration latency visible in Figure 5's step timing.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node, NodeDown
from repro.simulation.kernel import Signal, SimKernel


class Package:
    """An installable software archive."""

    def __init__(
        self,
        name: str,
        version: str,
        size_mb: float = 10.0,
        setup_time_s: float = 2.0,
        files: Optional[Mapping[str, str]] = None,
        footprint_mb: float = 32.0,
    ) -> None:
        if size_mb < 0 or setup_time_s < 0 or footprint_mb < 0:
            raise ValueError("package metrics must be >= 0")
        self.name = name
        self.version = version
        self.size_mb = size_mb
        self.setup_time_s = setup_time_s
        self.files = dict(files or {})
        self.footprint_mb = footprint_mb

    @property
    def install_root(self) -> str:
        return f"/opt/{self.name}-{self.version}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Package({self.name}-{self.version}, {self.size_mb} MB)"


class PackageNotFound(KeyError):
    """Requested package is not in the repository."""


class SoftwareInstallationService:
    """Installs repository packages onto cluster nodes."""

    def __init__(self, kernel: SimKernel, lan: Optional[Lan] = None) -> None:
        self.kernel = kernel
        self.lan = lan
        self._repository: dict[str, Package] = {}
        self._installed: dict[str, set[str]] = {}  # node name -> package names
        self.installs_total = 0

    # ------------------------------------------------------------------
    # Repository
    # ------------------------------------------------------------------
    def register(self, package: Package) -> None:
        """Publish a package in the repository (replaces same-name entry)."""
        self._repository[package.name] = package

    def lookup(self, name: str) -> Package:
        try:
            return self._repository[name]
        except KeyError:
            raise PackageNotFound(name) from None

    @property
    def repository(self) -> dict[str, Package]:
        return dict(self._repository)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, name: str, node: Node) -> Signal:
        """Install package ``name`` onto ``node``.

        Returns a :class:`Signal` that fires with the package once the
        install completes (setup + transfer time later).  Installing an
        already-installed package completes after the setup time only
        (idempotent refresh).  Fails the signal if the node is down.
        """
        package = self.lookup(name)
        done = Signal(self.kernel)
        if not node.up:
            done.fail(NodeDown(node.name))
            return done
        delay = package.setup_time_s
        if not self.is_installed(name, node):
            delay += self.lan.transfer_time(package.size_mb) if self.lan else 0.0
        self.kernel.schedule(delay, self._finish_install, package, node, done)
        return done

    def _finish_install(self, package: Package, node: Node, done: Signal) -> None:
        if not node.up:
            done.fail(NodeDown(node.name))
            return
        root = package.install_root
        node.fs.write(f"{root}/.installed", f"{package.name} {package.version}\n")
        for rel_path, content in package.files.items():
            node.fs.write(f"{root}/{rel_path.lstrip('/')}", content)
        node.register_footprint(f"pkg:{package.name}", package.footprint_mb)
        self._installed.setdefault(node.name, set()).add(package.name)
        self.installs_total += 1
        done.succeed(package)

    def is_installed(self, name: str, node: Node) -> bool:
        return name in self._installed.get(node.name, set())
