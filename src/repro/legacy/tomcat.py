"""Simulated Jakarta Tomcat servlet container.

Serves the dynamic interactions of the RUBiS application: each request
consumes servlet CPU (``app_demand_pre``), issues its database work through
the JDBC datasource configured in ``server.xml`` (a C-JDBC URL in the
clustered setup, or a direct MySQL URL), then generates the HTML response
(``app_demand_post``).

The evaluation application "was composed of servlets with no dynamically
changing session information" (§4.1), so Tomcat replicas are stateless and
can be added/removed without state reconciliation.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.configfiles import ConfigError, ServerXml
from repro.legacy.directory import Directory
from repro.legacy.requests import WebRequest
from repro.legacy.server import LegacyServer, ServerNotRunning
from repro.simulation.kernel import SimKernel

_JDBC_URL = re.compile(r"^jdbc:(?P<driver>[\w-]+)://(?P<host>[\w.-]+):(?P<port>\d+)/(?P<db>\w+)$")


def parse_jdbc_url(url: str) -> tuple[str, str, int, str]:
    """``jdbc:cjdbc://host:port/db`` -> (driver, host, port, database)."""
    m = _JDBC_URL.match(url)
    if m is None:
        raise ConfigError(f"bad JDBC URL {url!r}")
    return m["driver"], m["host"], int(m["port"]), m["db"]


class TomcatServer(LegacyServer):
    """A Tomcat replica."""

    CONFIG_PATH = "/etc/tomcat/server.xml"
    footprint_mb = 96.0

    def __init__(
        self,
        kernel: SimKernel,
        name: str,
        node: Node,
        directory: Directory,
        lan: Optional[Lan] = None,
    ) -> None:
        super().__init__(kernel, name, node, directory, lan)
        self.conf: Optional[ServerXml] = None
        #: the datasource's ``(host, port)`` endpoint
        self._datasource: Optional[tuple[str, int]] = None
        # Request-path targets, bound once (see LegacyServer).
        self.handle = self.handle
        self._query_db = self._query_db
        self._respond = self._respond
        self._finish = self._finish
        self._servlet_aborted = self._servlet_aborted
        self._db_failed = self._db_failed
        self._response_aborted = self._response_aborted

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        text = self.node.fs.read(self.CONFIG_PATH)
        self.conf = ServerXml.parse(text)
        _, host, port, _ = parse_jdbc_url(self.conf.datasource_url)
        self._datasource = (host, port)

    def _endpoints(self) -> list[tuple[str, int]]:
        assert self.conf is not None
        return [(self.host, self.conf.http_port), (self.host, self.conf.ajp_port)]

    @property
    def ajp_port(self) -> int:
        if self.conf is None:
            raise ServerNotRunning(f"{self.name}: not configured")
        return self.conf.ajp_port

    # ------------------------------------------------------------------
    def handle(self, request: WebRequest) -> None:
        """Serve a dynamic request end-to-end; completes (or fails) the
        request, which runs its ``then``."""
        if not self.running:
            request.fail(self.kernel, f"{self.name} is not running")
            return
        if self.admission_limit is not None and not self._admit():
            request.fail(self.kernel, f"{self.name}: 503 all threads busy")
            return
        if self.fault_rate > 0.0 and self._inject_fault():
            # A bad push's servlet bug: the request errors out immediately
            # (counted as a server failure, visible to the canary tap).
            self.failures += request.weight
            if self.request_observer is not None:
                self.request_observer(request, False)
            request.fail(self.kernel, f"{self.name}: 500 injected fault")
            return
        weight = request.weight
        self.pending += weight
        self.node.submit(
            request.app_demand_pre,
            weight,
            self._query_db,
            self._servlet_aborted,
            (request,),
        )

    def _query_db(self, request: WebRequest) -> None:
        if request.db_demand <= 0.0:
            self._respond(request)
            return
        datasource = self.directory.find(self._datasource)
        if datasource is None:
            self._abort(request, "datasource connection refused")
            return
        datasource.execute(request, self._respond, self._db_failed)

    def _respond(self, request: WebRequest) -> None:
        self.node.submit(
            request.app_demand_post,
            request.weight,
            self._finish,
            self._response_aborted,
            (request,),
        )

    def _finish(self, request: WebRequest) -> None:
        weight = request.weight
        self.pending -= weight
        assert self.pending >= 0, f"{self.name}: pending underflow"
        self.served += weight
        if self.request_observer is not None:
            self.request_observer(request, True)
        request.complete(self.kernel)

    def _servlet_aborted(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"servlet aborted: {err}")

    def _db_failed(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"SQL error: {err}")

    def _response_aborted(self, request: WebRequest, err: BaseException) -> None:
        self._abort(request, f"response generation aborted: {err}")

    def _abort(self, request: WebRequest, reason: str) -> None:
        self._end(ok=False, weight=request.weight)
        if self.request_observer is not None:
            self.request_observer(request, False)
        request.fail(self.kernel, f"{self.name}: {reason}")
