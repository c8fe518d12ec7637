"""Simulated L4 switch.

"the L4 switch for a cluster of replicated Apache web servers" (§2) — the
hardware balancer in front of the web tier in Figure 2.  Being hardware, it
has no node, no config file and no CPU cost; it spreads client connections
over a set of Apache endpoints and skips dead ones.
"""

from __future__ import annotations

from typing import Optional


from repro.cluster.network import Lan
from repro.legacy.directory import Directory
from repro.legacy.policies import BalancingPolicy, RoundRobinPolicy
from repro.legacy.requests import WebRequest
from repro.simulation.kernel import SimKernel


class L4Switch:
    """A link-level load balancer (not a :class:`LegacyServer`: it is a
    piece of hardware, which is precisely why the paper manages the web tier
    through it rather than through software configuration)."""

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        directory: Directory,
        lan: Optional[Lan] = None,
        policy: Optional[BalancingPolicy] = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.directory = directory
        self.lan = lan
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self._endpoints: list[tuple[str, int]] = []
        self.forwarded = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Port configuration (front-panel administration)
    # ------------------------------------------------------------------
    def add_endpoint(self, host: str, port: int) -> None:
        key = (host, int(port))
        if key in self._endpoints:
            raise ValueError(f"endpoint {host}:{port} already configured")
        self._endpoints.append(key)
        self.policy.reset()

    def remove_endpoint(self, host: str, port: int) -> None:
        key = (host, int(port))
        self._endpoints.remove(key)
        self.policy.reset()

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        return list(self._endpoints)

    # ------------------------------------------------------------------
    def handle(self, request: WebRequest) -> None:
        """Forward a client connection to a live web server."""
        candidates = list(self._endpoints)
        for _ in range(len(candidates)):
            endpoint = self.policy.choose(candidates)
            server = self.directory.find(endpoint)
            if server is not None and server.running:
                self.forwarded += 1
                if self.lan is None:
                    self.kernel.call_soon(server.handle, request)
                else:
                    self.kernel.schedule(
                        self.lan.hop_delay_s, server.handle, request
                    )
                return
            candidates = [c for c in candidates if c != endpoint]
            if not candidates:
                break
        self.dropped += 1
        request.fail(self.kernel, f"{self.name}: no live web server")
