"""Stateful property test of the C-JDBC replication protocol.

Hypothesis drives random interleavings of the operations the management
layer can perform on the clustered database — writes, reads, backend
attach (with recovery-log sync), clean detach, crash, time passing — and
checks the protocol's core invariants after every step:

* every ENABLED backend that has no in-flight work has applied a *prefix*
  of the recovery log;
* whenever the system is quiescent, all ENABLED backends hold identical
  state digests (full mirroring);
* a detached backend's checkpoint never exceeds the log's length.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.legacy.cjdbc import CJdbcController
from repro.legacy.directory import Directory
from repro.legacy.mysql import MySqlServer
from repro.legacy.requests import WebRequest
from repro.legacy.configfiles import CjdbcBackend, CjdbcXml, MyCnf
from repro.simulation.kernel import SimKernel
from tests.conftest import ignore


class CJdbcMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel = SimKernel()
        self.lan = Lan()
        self.directory = Directory()
        self.next_node = 0
        self.servers: dict[str, MySqlServer] = {}
        first = self._new_mysql("mysql0")
        cj_node = self._new_node()
        cj_node.fs.write(
            CJdbcController.CONFIG_PATH,
            CjdbcXml(
                backends=[CjdbcBackend("mysql0", first.node.name, 3306)]
            ).render(),
        )
        self.cjdbc = CJdbcController(
            self.kernel, "cjdbc", cj_node, self.directory, self.lan
        )
        self.cjdbc.start()
        self.detached: list[str] = []

    # ------------------------------------------------------------------
    def _new_node(self) -> Node:
        self.next_node += 1
        return Node(self.kernel, f"n{self.next_node}")

    def _new_mysql(self, name: str) -> MySqlServer:
        node = self._new_node()
        node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
        server = MySqlServer(self.kernel, name, node, self.directory, self.lan)
        server.start()
        self.servers[name] = server
        return server

    # ------------------------------------------------------------------
    @rule(n=st.integers(min_value=1, max_value=5))
    def write(self, n):
        for _ in range(n):
            req = WebRequest(self.kernel, "w", is_write=True, db_demand=0.005)
            self.cjdbc.execute(req, ignore, ignore)

    @rule()
    def read(self):
        if self.cjdbc.enabled_backends():
            req = WebRequest(self.kernel, "r", db_demand=0.004)
            self.cjdbc.execute(req, ignore, ignore)

    @rule()
    def settle(self):
        """Let all in-flight work (including syncs) complete."""
        self.kernel.run()

    @rule(dt=st.floats(min_value=0.001, max_value=0.2))
    def advance(self, dt):
        self.kernel.run(until=self.kernel.now + dt)

    @precondition(lambda self: len(self.cjdbc.backends()) < 4)
    @rule()
    def attach_new(self):
        name = f"mysql{len(self.servers)}"
        server = self._new_mysql(name)
        self.cjdbc.attach_backend(name, server)

    @precondition(lambda self: self.detached)
    @rule()
    def reattach(self):
        name = self.detached.pop()
        server = self.servers[name]
        if server.running and name not in [b.name for b in self.cjdbc.backends()]:
            self.cjdbc.attach_backend(name, server)

    @precondition(lambda self: len(self.cjdbc.enabled_backends()) > 1)
    @rule()
    def detach(self):
        handle = self.cjdbc.enabled_backends()[-1]
        self.cjdbc.detach_backend(handle.name)
        self.detached.append(handle.name)

    @precondition(lambda self: len(self.cjdbc.enabled_backends()) > 1)
    @rule()
    def crash_backend(self):
        handle = self.cjdbc.enabled_backends()[-1]
        handle.server.node.crash()
        self.cjdbc.drop_backend(handle.name)

    # ------------------------------------------------------------------
    @invariant()
    def checkpoints_within_log(self):
        log = self.cjdbc.log
        for name in self.detached:
            cp = log.checkpoint(name)
            assert cp is None or 0 <= cp <= log.next_index

    @invariant()
    def applied_indexes_bounded(self):
        for backend in self.cjdbc.backends():
            assert backend.server.applied_index <= self.cjdbc.log.next_index

    @invariant()
    def quiescent_backends_identical(self):
        # Only meaningful when nothing is in flight.
        if self.kernel.pending:
            return
        enabled = self.cjdbc.enabled_backends()
        caught_up = [
            b for b in enabled if b.server.applied_index == self.cjdbc.log.next_index
        ]
        digests = {b.server.state_digest for b in caught_up}
        assert len(digests) <= 1

    def teardown(self):
        self.kernel.run()
        enabled = self.cjdbc.enabled_backends()
        if enabled:
            digests = {b.server.state_digest for b in enabled}
            assert len(digests) == 1
            for b in enabled:
                assert b.server.applied_index == self.cjdbc.log.next_index


TestCJdbcStateful = CJdbcMachine.TestCase
TestCJdbcStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
