"""Simulated Apache httpd web server with mod_jk.

Serves static documents locally (CPU demand from the request) and forwards
dynamic requests to Tomcat workers through mod_jk.  The worker set and
weights come from ``worker.properties`` — the exact file the paper's §5.1
scenario edits by hand in the manual procedure, and the file the Apache
wrapper rewrites when its ``ajp`` binding changes.
"""

from __future__ import annotations

import operator
from typing import Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.configfiles import HttpdConf, WorkerProperties
from repro.legacy.directory import Directory
from repro.legacy.policies import WeightedRoundRobinPolicy
from repro.legacy.requests import WebRequest
from repro.legacy.server import LegacyServer
from repro.simulation.kernel import SimKernel


class ApacheServer(LegacyServer):
    """An Apache replica."""

    CONFIG_PATH = "/etc/apache/httpd.conf"
    footprint_mb = 40.0

    #: CPU to proxy one dynamic request through mod_jk (seconds)
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
        self.conf: Optional[HttpdConf] = None
        self.workers: Optional[WorkerProperties] = None
        self._policy = WeightedRoundRobinPolicy(operator.attrgetter("lbfactor"))
        self.static_served = 0
        self.dynamic_forwarded = 0

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        self.conf = HttpdConf.parse(self.node.fs.read(self.CONFIG_PATH))
        workers_text = self.node.fs.read(self.conf.jk_workers_file)
        self.workers = WorkerProperties.parse(workers_text)
        self._policy.reset()

    def _endpoints(self) -> list[tuple[str, int]]:
        assert self.conf is not None
        return [(self.host, self.conf.listen)]

    @property
    def port(self) -> int:
        assert self.conf is not None
        return self.conf.listen

    # ------------------------------------------------------------------
    def handle(self, request: WebRequest) -> None:
        """Serve one HTTP request (static locally, dynamic via mod_jk)."""
        if not self.running:
            request.fail(self.kernel, f"{self.name} is not running")
            return
        if self.admission_limit is not None and not self._admit():
            request.fail(self.kernel, f"{self.name}: 503 MaxClients reached")
            return
        weight = request.weight
        self.pending += weight
        if request.is_static:
            self.node.submit(
                request.static_demand,
                weight,
                self._finish_static,
                self._static_aborted,
                (request,),
            )
        else:
            self.node.submit(
                self.proxy_demand * weight,
                weight,
                self._forward,
                self._modjk_aborted,
                (request,),
            )

    def _finish_static(self, request: WebRequest) -> None:
        weight = request.weight
        self.static_served += weight
        self.pending -= weight
        assert self.pending >= 0, f"{self.name}: pending underflow"
        self.served += weight
        request.complete(self.kernel)

    def _forward(self, request: WebRequest) -> None:
        assert self.workers is not None
        find = self.directory.find
        live = []
        for worker in self.workers.workers:
            server = find((worker.host, worker.port))
            if server is not None and server.running:
                live.append(worker)
        if not live:
            self._abort(request, "no live AJP worker")
            return
        worker = self._policy.choose(live)
        server = find((worker.host, worker.port))
        weight = request.weight
        self.dynamic_forwarded += weight
        self.pending -= weight
        assert self.pending >= 0, f"{self.name}: pending underflow"
        self.served += weight
        kernel = self.kernel
        lan = self.lan
        at = kernel._now if lan is None else kernel._now + lan.hop_delay_s
        kernel._post_at(at, server.handle, (request,))

    def _static_aborted(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"static serve aborted: {err}")

    def _modjk_aborted(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"mod_jk aborted: {err}")

    def _abort(self, request: WebRequest, reason: str) -> None:
        self._end(ok=False, weight=request.weight)
        request.fail(self.kernel, f"{self.name}: {reason}")
