"""Simulated PLB — the application-server load balancer.

"PLB 0.3, a free high-performance load balancer for Unix" fronts the
replicated Tomcat tier in the paper's testbed.  It reads a directive file
(``plb.conf``) listing backend ``host:port`` entries, balances requests over
them, and supports online reconfiguration (re-reading its config on
``reload`` — the hook the Jade actuators use to integrate or remove a
replica without dropping traffic).

A backend that refuses the connection (crashed or stopped) is skipped and
the next one is tried, like a real TCP balancer with health checking.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.configfiles import PlbConf
from repro.legacy.directory import Directory
from repro.legacy.policies import BalancingPolicy, make_policy
from repro.legacy.requests import WebRequest
from repro.legacy.server import LegacyServer, ServerNotRunning
from repro.simulation.kernel import SimKernel


class PlbBalancer(LegacyServer):
    """The PLB process."""

    CONFIG_PATH = "/etc/plb/plb.conf"
    footprint_mb = 16.0

    #: balancer CPU consumed to proxy one request (seconds)
    proxy_demand = 0.0002

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        node: Node,
        directory: Directory,
        lan: Optional[Lan] = None,
    ) -> None:
        super().__init__(kernel, name, node, directory, lan)
        self.conf: Optional[PlbConf] = None
        self._policy: Optional[BalancingPolicy] = None
        self.forwarded = 0
        self.retries = 0
        # Request-path targets, bound once (see LegacyServer).
        self.handle = self.handle
        self._forward = self._forward
        self._proxy_aborted = self._proxy_aborted

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        text = self.node.fs.read(self.CONFIG_PATH)
        self.conf = PlbConf.parse(text)
        self._policy = make_policy(self.conf.policy)

    def _endpoints(self) -> list[tuple[str, int]]:
        assert self.conf is not None
        return [(self.host, self.conf.listen)]

    def reload(self) -> None:
        """Re-read plb.conf without dropping the listening socket (the
        online-reconfiguration entry point used by actuators)."""
        if not self.running:
            raise ServerNotRunning(self.name)
        self._load_config()

    @property
    def backend_endpoints(self) -> list[tuple[str, int]]:
        if self.conf is None:
            return []
        return list(self.conf.servers)

    # ------------------------------------------------------------------
    def handle(self, request: WebRequest) -> None:
        """Proxy one client request to a backend."""
        if not self.running:
            request.fail(self.kernel, f"{self.name} is not running")
            return
        weight = request.weight
        self.pending += weight
        self.node.submit(
            self.proxy_demand * weight,
            weight,
            self._forward,
            self._proxy_aborted,
            (request,),
        )

    def _forward(self, request: WebRequest) -> None:
        assert self.conf is not None and self._policy is not None
        # The policy picks from the configured list itself; a list of the
        # remaining candidates is built only once a pick is refused.
        candidates = self.conf.servers
        find = self.directory.find
        while candidates:
            endpoint = self._policy.choose(candidates)
            server = find(endpoint)
            if server is not None and server.running:
                weight = request.weight
                self.forwarded += weight
                self.pending -= weight
                assert self.pending >= 0, f"{self.name}: pending underflow"
                self.served += weight
                kernel = self.kernel
                lan = self.lan
                at = kernel._now if lan is None else kernel._now + lan.hop_delay_s
                kernel._post_at(at, server.handle, (request,))
                return
            self.retries += 1
            candidates = [c for c in candidates if c != endpoint]
        self._abort(request, "no live backend")

    def _proxy_aborted(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"proxy aborted: {err}")

    def _abort(self, request: WebRequest, reason: str) -> None:
        self._end(ok=False, weight=request.weight)
        request.fail(self.kernel, f"{self.name}: {reason}")
