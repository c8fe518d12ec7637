"""Base class for simulated legacy servers.

A legacy server is a program running on a cluster node.  It is started with
a shell-script-like call, parses its *own* proprietary config files from the
node filesystem at start time, listens on host:port endpoints, consumes node
CPU to serve requests, and dies with its node.  It knows nothing about Jade:
the management layer interacts with it exactly the way an administrator
would — editing config files and invoking start/stop (§3.2).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.directory import Directory
from repro.simulation.kernel import SimKernel


class ServerNotRunning(RuntimeError):
    """Operation requires the server process to be running."""


class LegacyServer:
    """Common machinery: lifecycle, endpoints, counters, crash handling."""

    #: static memory footprint of the running process, MB
    footprint_mb: float = 48.0

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        node: Node,
        directory: Directory,
        lan: Optional[Lan] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.node = node
        self.directory = directory
        self.lan = lan
        self.running = False
        self.pending = 0  # requests currently in flight at this server
        self.served = 0
        self.failures = 0
        self.rejected = 0
        #: when set, new work is refused once ``pending`` reaches this value
        #: (models Tomcat's maxThreads / Apache's MaxClients / MySQL's
        #: max_connections).  None = accept everything (the default: the
        #: paper's Figure 8 shows unbounded queueing, not admission control).
        self.admission_limit: Optional[int] = None
        #: label of the configuration version this server runs (None =
        #: stable baseline; set by the deploy subsystem's bounce actuators)
        self.version_label: Optional[str] = None
        #: a "bad push" injects servlet errors: each admitted request
        #: fails with this probability (drawn from ``fault_rng``).  Zero
        #: cost when 0.0 — the hot path short-circuits on the float.
        self.fault_rate: float = 0.0
        self.fault_rng: Optional[Callable[[], float]] = None
        #: optional per-request tap ``(request, ok) -> None`` fired at
        #: completion/abort (the canary controller's measurement hook)
        self.request_observer: Optional[Callable[[object, bool], None]] = None
        self._registered: list[tuple[str, int]] = []
        node.on_crash(self._node_crashed)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The server's hostname is its node's name."""
        return self.node.name

    # ------------------------------------------------------------------
    # Lifecycle (what the start/stop shell scripts do)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Parse config from the node filesystem, bind endpoints, run.

        Idempotent; raises if the node is down or the config is missing or
        malformed (exactly how a real init script fails).
        """
        if self.running:
            return
        if not self.node.up:
            raise ServerNotRunning(f"{self.name}: node {self.node.name} is down")
        self._load_config()
        for host, port in self._endpoints():
            self.directory.register(host, port, self)
            self._registered.append((host, port))
        self.node.register_footprint(f"srv:{self.name}", self.footprint_mb)
        self.running = True
        self._started()

    def stop(self) -> None:
        """Stop accepting requests and release endpoints (graceful: CPU work
        already queued on the node completes)."""
        if not self.running:
            return
        self.running = False
        self._release_endpoints()
        self.node.unregister_footprint(f"srv:{self.name}")
        self._stopped()

    def _release_endpoints(self) -> None:
        for host, port in self._registered:
            self.directory.unregister(host, port)
        self._registered.clear()

    def _node_crashed(self, node: Node) -> None:
        if self.running:
            self.running = False
            self._release_endpoints()
            self._crashed()

    # Hooks for subclasses -------------------------------------------------
    def _load_config(self) -> None:
        """Parse the server's config files; raise on absence/corruption."""

    def _endpoints(self) -> list[tuple[str, int]]:
        """(host, port) pairs the server listens on once started."""
        return []

    def _started(self) -> None:
        """Post-start hook."""

    def _stopped(self) -> None:
        """Post-stop hook."""

    def _crashed(self) -> None:
        """Crash hook (node died under the server)."""

    # ------------------------------------------------------------------
    # Serving helpers
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        """True if a new request may enter; counts the rejection if not."""
        if self.admission_limit is not None and self.pending >= self.admission_limit:
            self.rejected += 1
            return False
        return True

    def _inject_fault(self) -> bool:
        """True when the configured per-version error rate fires for this
        request (a bad push's 500s)."""
        if self.fault_rate <= 0.0 or self.fault_rng is None:
            return False
        return self.fault_rng() < self.fault_rate

    def _observe(self, request, ok: bool) -> None:
        if self.request_observer is not None:
            self.request_observer(request, ok)

    def _begin(self, weight: int = 1) -> None:
        self.pending += weight

    def _end(self, ok: bool = True, weight: int = 1) -> None:
        self.pending -= weight
        assert self.pending >= 0, f"{self.name}: pending underflow"
        if ok:
            self.served += weight
        else:
            self.failures += weight

    def _after_hop(self, fn: Callable[..., None], *args) -> None:
        """Run ``fn`` after a simulated network hop (immediately if no LAN
        model was provided)."""
        if self.lan is None:
            self.kernel.post(fn, *args)
        else:
            self.kernel.post_in(self.lan.message_delay(), fn, *args)

    def _run_then(
        self,
        demand: float,
        fn: Callable[[], None],
        fail: Callable[[BaseException], None],
        weight: int = 1,
    ) -> None:
        """Consume ``demand`` seconds of CPU on our node, then call ``fn``;
        on CPU abort (node crash) call ``fail``.  ``weight`` is the number
        of batched identical requests the demand sums over (cohorts): the
        CPU sees ``weight`` concurrent requests of ``demand / weight``
        each.  If our node has already crashed, ``fail`` receives
        :class:`~repro.cluster.node.NodeDown` asynchronously, as if the
        crash had aborted the work.

        ``fn`` runs as its own kernel event or through the kernel's tail
        dispatch, so it may end in a tail call (``succeed_tail``).  With
        ``demand <= 0`` it runs synchronously instead; every caller is
        then either itself in tail position or fires a signal that has no
        waiter yet, so such a tail call stays exact."""
        if demand <= 0.0:
            fn()
            return
        self.node.run_job(demand, tag=self.name, weight=weight, then=fn, fail=fail)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.running else "stopped"
        return f"<{type(self).__name__} {self.name} on {self.node.name} [{state}]>"
