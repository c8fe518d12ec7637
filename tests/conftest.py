"""Shared fixtures: kernels, clusters, and pre-wired legacy stacks."""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.network import Lan
from repro.cluster.node import make_nodes
from repro.fractal.adl import ComponentFactoryRegistry, parse_adl
from repro.jade.control_loop import (
    ControlLoop,
    InhibitionLock,
    register_management_types,
    wire_loops,
)
from repro.jade.deployment import DeploymentService
from repro.legacy.cjdbc import CJdbcController
from repro.legacy.directory import Directory
from repro.legacy.mysql import MySqlServer
from repro.legacy.plb import PlbBalancer
from repro.legacy.requests import WebRequest
from repro.legacy.tomcat import TomcatServer
from repro.legacy.configfiles import (
    CjdbcBackend,
    CjdbcXml,
    MyCnf,
    PlbConf,
    ServerXml,
)
from repro.simulation.kernel import SimKernel


def deploy_loop(
    kernel: SimKernel,
    tier,
    name: str,
    *,
    window_s: float,
    fresh_samples: int,
    inhibition_s: float,
) -> ControlLoop:
    """One threshold loop over ``tier`` (no warm-up, a free probe),
    deployed from its ADL by the program's own deploy path."""
    registry = ComponentFactoryRegistry()
    register_management_types(registry)
    adl = f"""
<definition name="manager">
  <component name="{name}" composite="true">
    <component name="{name}-sensor" type="cpu-sensor">
      <attribute name="tier" value="t"/>
      <attribute name="probe" value="probe"/>
      <attribute name="window_s" value="{window_s}"/>
      <attribute name="period_s" value="1.0"/>
      <attribute name="probe_demand_s" value="0.0"/>
    </component>
    <component name="{name}-reactor" type="policy-reactor">
      <attribute name="policy" value="threshold"/>
      <attribute name="max_threshold" value="0.8"/>
      <attribute name="min_threshold" value="0.35"/>
      <attribute name="service_demand_s" value="0.0"/>
      <attribute name="min_replicas" value="1"/>
      <attribute name="fresh_samples" value="{fresh_samples}"/>
    </component>
    <component name="{name}-actuator" type="resize-actuator">
      <attribute name="tier" value="t"/>
    </component>
  </component>
  <binding client="{name}-sensor.notify" server="{name}-reactor.readings"/>
  <binding client="{name}-reactor.actuate" server="{name}-actuator.resize"/>
</definition>
"""
    manager = DeploymentService(kernel, registry, None, None).deploy(
        parse_adl(adl), tiers={"t": tier}, inhibition=InhibitionLock(kernel, inhibition_s)
    )
    (loop,) = wire_loops(manager.root)
    loop.reactor.warmup_samples = 0
    return loop


def ignore(*_) -> None:
    """A query or job continuation that records nothing."""


class Job:
    """A CPU job whose continuation records its answer: the CPU keeps a
    job only as its heap entry, so a test reads the outcome here."""

    def __init__(self, kernel: SimKernel, demand: float, weight: int = 1):
        self.kernel = kernel
        self.demand = demand
        self.weight = weight
        #: instant of the completion, None until then
        self.completed_at = None
        #: the abort error, None unless aborted
        self.error = None

    def submit(self, cpu) -> None:
        cpu.submit(self.demand, self.weight, self._done, self._failed)

    def run_on(self, node) -> None:
        node.run_job(self.demand, self.weight, self._done, self._failed)

    def _done(self) -> None:
        self.completed_at = self.kernel.now

    def _failed(self, error: BaseException) -> None:
        self.error = error


def collector_digest(col) -> str:
    """Fingerprint of a run's simulated outputs: the latency, failure and
    node-CPU series, every tier's replica changes and the
    reconfiguration log."""
    h = hashlib.sha256()
    for series in (col.latencies, col.failures, col.node_cpu):
        h.update(series.times.astype("<f8").tobytes())
        h.update(series.values.astype("<f8").tobytes())
    h.update(repr({t: col.replica_changes(t) for t in sorted(col.tier_replicas)}).encode())
    h.update(repr(col.reconfigurations).encode())
    return h.hexdigest()


@pytest.fixture
def kernel():
    return SimKernel()


@pytest.fixture
def lan():
    return Lan()


@pytest.fixture
def directory():
    return Directory()


class LegacyStack:
    """A running PLB → Tomcat → C-JDBC → MySQL chain on five nodes."""

    def __init__(self, kernel, lan, directory, extra_nodes: int = 3):
        self.kernel = kernel
        self.lan = lan
        self.directory = directory
        nodes = make_nodes(kernel, 5 + extra_nodes)
        self.n_plb, self.n_tc, self.n_cj, self.n_db, *rest = nodes
        self.spare_nodes = rest

        self.n_db.fs.write(MySqlServer.CONFIG_PATH, MyCnf(port=3306).render())
        self.mysql = MySqlServer(kernel, "mysql1", self.n_db, directory, lan)
        self.mysql.start()

        self.n_cj.fs.write(
            CJdbcController.CONFIG_PATH,
            CjdbcXml(backends=[CjdbcBackend("mysql1", self.n_db.name, 3306)]).render(),
        )
        self.cjdbc = CJdbcController(kernel, "cjdbc", self.n_cj, directory, lan)
        self.cjdbc.start()

        self.n_tc.fs.write(
            TomcatServer.CONFIG_PATH,
            ServerXml(
                datasource_url=f"jdbc:cjdbc://{self.n_cj.name}:25322/rubis"
            ).render(),
        )
        self.tomcat = TomcatServer(kernel, "tomcat1", self.n_tc, directory, lan)
        self.tomcat.start()

        self.n_plb.fs.write(
            PlbBalancer.CONFIG_PATH,
            PlbConf(servers=[(self.n_tc.name, 8080)]).render(),
        )
        self.plb = PlbBalancer(kernel, "plb", self.n_plb, directory, lan)
        self.plb.start()

    def request(
        self,
        write: bool = False,
        app_pre: float = 0.01,
        app_post: float = 0.002,
        db: float = 0.02,
        then=None,
    ) -> WebRequest:
        """Issue a request through the front balancer; its answer runs
        ``then(request)``, if given."""
        req = WebRequest(
            self.kernel,
            "ViewItem" if not write else "StoreBid",
            is_write=write,
            app_demand_pre=app_pre,
            app_demand_post=app_post,
            db_demand=db,
        )
        req.then = then
        self.plb.handle(req)
        return req

    def add_mysql(self, name: str, node=None) -> MySqlServer:
        """Start another MySQL replica on a spare node (not yet attached)."""
        node = node if node is not None else self.spare_nodes.pop(0)
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf(port=3306).render())
        server = MySqlServer(self.kernel, name, node, self.directory, self.lan)
        server.start()
        return server

    def add_tomcat(self, name: str, node=None) -> TomcatServer:
        node = node if node is not None else self.spare_nodes.pop(0)
        node.fs.write(
            TomcatServer.CONFIG_PATH,
            ServerXml(
                datasource_url=f"jdbc:cjdbc://{self.n_cj.name}:25322/rubis"
            ).render(),
        )
        server = TomcatServer(self.kernel, name, node, self.directory, self.lan)
        server.start()
        return server


@pytest.fixture
def stack(kernel, lan, directory):
    return LegacyStack(kernel, lan, directory)
