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
        request.trace(self.name)
        self._begin(request.weight)
        weight = request.weight
        self._run_then(
            self.proxy_demand * weight,
            weight,
            self._forward,
            self._proxy_aborted,
            request,
        )

    def _forward(self, request: WebRequest) -> None:
        assert self.conf is not None and self._policy is not None
        candidates = list(self.conf.servers)
        attempts = len(candidates)
        chosen = None
        for _ in range(attempts):
            host, port = self._policy.choose(candidates)
            server = self.directory.try_lookup(host, port)
            if server is not None and server.running:
                chosen = server
                break
            self.retries += 1
            candidates = [(h, p) for h, p in candidates if (h, p) != (host, port)]
            if not candidates:
                break
        if chosen is None:
            self._abort(request, "no live backend")
            return
        self.forwarded += request.weight
        self._end(weight=request.weight)
        self._after_hop(chosen.handle, request)

    def _proxy_aborted(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"proxy aborted: {err}")

    def _abort(self, request: WebRequest, reason: str) -> None:
        self._end(ok=False, weight=request.weight)
        request.fail(self.kernel, f"{self.name}: {reason}")
