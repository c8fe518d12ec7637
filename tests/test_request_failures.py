"""Failure paths of the legacy request chain, stage by stage.

Each case sends one request into PLB → Tomcat → C-JDBC → MySQL, crashes
a node or stops a server while the request is at one stage, and drains
the kernel.  The request must fail (or, for a write that survives on a
quorum, complete) with the reason string below, every server's
``pending`` and every C-JDBC backend's ``inflight`` must return to 0,
and the ``(served, failures)`` of each server must be exactly the
recorded ones.  These paths carry no canonical workload digest (only
``federation-evac``'s crash reaches one), so the values are pinned here.
"""

from __future__ import annotations

import pytest

from repro.legacy.requests import WebRequest
from repro.legacy.tomcat import TomcatServer
from repro.legacy.configfiles import ServerXml
from tests.conftest import LegacyStack


def _run_until(kernel, predicate, limit: int = 10_000) -> None:
    for _ in range(limit):
        if predicate():
            return
        assert kernel.step(), "the kernel drained before the stage was reached"
    raise AssertionError("stage not reached")


def _direct_mysql(stack: LegacyStack) -> None:
    """Point the Tomcat straight at the MySQL replica (``jdbc:mysql``)."""
    stack.tomcat.stop()
    stack.n_tc.fs.write(
        TomcatServer.CONFIG_PATH,
        ServerXml(
            datasource_url=f"jdbc:mysql://{stack.n_db.name}:3306/rubis"
        ).render(),
    )
    stack.tomcat.start()


def _second_replica(stack: LegacyStack):
    mysql2 = stack.add_mysql("mysql2")
    stack.cjdbc.attach_backend("mysql2", mysql2)
    return mysql2


def _scenario(stage: str, stack: LegacyStack) -> tuple[WebRequest, list]:
    """Issue the request and break the chain at ``stage``; returns the
    request and every server to check."""
    kernel = stack.kernel
    servers = [stack.plb, stack.tomcat, stack.cjdbc, stack.mysql]
    write = stage.startswith("write")
    if stage.startswith("write-fanout"):
        servers.append(_second_replica(stack))
    if stage.startswith("direct"):
        _direct_mysql(stack)
        servers.remove(stack.cjdbc)
    req = stack.request(write=write)
    if stage == "plb-proxy":
        stack.n_plb.crash()
    elif stage == "tomcat-pre":
        _run_until(kernel, lambda: stack.tomcat.pending > 0)
        stack.n_tc.crash()
    elif stage == "cjdbc-route":
        _run_until(kernel, lambda: stack.cjdbc.pending > 0)
        stack.n_cj.crash()
    elif stage in ("mysql-read", "direct-mysql-read", "direct-mysql-write"):
        _run_until(kernel, lambda: stack.mysql.pending > 0)
        stack.n_db.crash()
    elif stage == "mysql-stopped":
        _run_until(kernel, lambda: stack.cjdbc.pending > 0)
        stack.mysql.stop()
    elif stage == "write-fanout-all":
        _run_until(kernel, lambda: all(s.pending for s in servers[3:]))
        for server in servers[3:]:
            server.node.crash()
    elif stage == "write-fanout-one":
        _run_until(kernel, lambda: all(s.pending for s in servers[3:]))
        stack.n_db.crash()
    elif stage == "write-fanout-stopped":
        _run_until(kernel, lambda: stack.cjdbc.pending > 0)
        servers[4].stop()
    elif stage == "tomcat-post":
        _run_until(
            kernel,
            lambda: stack.cjdbc.served == 1 and stack.n_tc.cpu.active_jobs > 0,
        )
        stack.n_tc.crash()
    else:  # pragma: no cover - table typo
        raise ValueError(stage)
    kernel.run()
    return req, servers


#: stage -> (failure reason after "request N: ", or None when the request
#: completes; (served, failures) per server in PLB, Tomcat, C-JDBC,
#: MySQL[, mysql2] order, C-JDBC left out for a direct datasource; kernel
#: events dispatched plus run inline)
EXPECTED = {
    "plb-proxy": ("plb: proxy aborted: node1", [(0, 1), (0, 0), (0, 0), (0, 0)], 2),
    "tomcat-pre": (
        "tomcat1: servlet aborted: node2",
        [(1, 0), (0, 1), (0, 0), (0, 0)],
        5,
    ),
    "cjdbc-route": (
        "tomcat1: SQL error: node3",
        [(1, 0), (0, 1), (0, 1), (0, 0)],
        8,
    ),
    "mysql-read": (
        "tomcat1: SQL error: node4",
        [(1, 0), (0, 1), (0, 1), (0, 1)],
        12,
    ),
    "mysql-stopped": (
        "tomcat1: SQL error: mysql1",
        [(1, 0), (0, 1), (0, 1), (0, 0)],
        10,
    ),
    "write-fanout-all": (
        "tomcat1: SQL error: node4",
        [(1, 0), (0, 1), (0, 1), (0, 1), (0, 1)],
        16,
    ),
    "write-fanout-one": (None, [(1, 0), (1, 0), (1, 0), (0, 1), (1, 0)], 18),
    "write-fanout-stopped": (None, [(1, 0), (1, 0), (1, 0), (1, 0), (0, 0)], 16),
    "tomcat-post": (
        "tomcat1: response generation aborted: node2",
        [(1, 0), (0, 1), (1, 0), (1, 0)],
        14,
    ),
    "direct-mysql-read": ("tomcat1: SQL error: node4", [(1, 0), (0, 1), (0, 1)], 8),
    "direct-mysql-write": ("tomcat1: SQL error: node4", [(1, 0), (0, 1), (0, 1)], 8),
}


@pytest.mark.parametrize("stage", sorted(EXPECTED))
def test_failure_at_stage(kernel, lan, directory, stage):
    stack = LegacyStack(kernel, lan, directory)
    req, servers = _scenario(stage, stack)
    reason, counters, events = EXPECTED[stage]
    assert req.completed_at is not None
    if reason is None:
        assert req.error is None
    else:
        assert req.error is not None
        message = str(req.error)
        assert message == f"request {req.req_id}: {reason}"
    assert [(s.served, s.failures) for s in servers] == counters
    assert all(s.pending == 0 for s in servers)
    assert all(b.inflight == 0 for b in stack.cjdbc.backends())
    assert kernel.events_processed + kernel.tail_dispatched == events
