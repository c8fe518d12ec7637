"""Unit + property tests for the C-JDBC recovery log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import Node
from repro.legacy.configfiles import MyCnf
from repro.legacy.mysql import MySqlServer, advance_digest
from repro.legacy.recovery_log import RecoveryLog
from tests.conftest import ignore


def fields(entry):
    return entry.index, entry.write_id, entry.sql, entry.demand, entry.weight


def mysql(kernel, directory, host):
    node = Node(kernel, host)
    node.fs.write(MySqlServer.CONFIG_PATH, MyCnf().render())
    server = MySqlServer(kernel, f"db-{host}", node, directory)
    server.start()
    return server


class TestRecoveryLog:
    def test_append_assigns_sequential_indexes(self):
        log = RecoveryLog()
        entries = [log.append(f"INSERT {i}", 0.01) for i in range(5)]
        assert [e.index for e in entries] == [0, 1, 2, 3, 4]
        assert log.next_index == 5
        assert len(log) == 5

    def test_write_ids_unique_and_increasing(self):
        log = RecoveryLog()
        ids = [log.append("w", 0.01).write_id for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_get_by_index(self):
        log = RecoveryLog()
        log.append("a", 0.01)
        entry = log.append("b", 0.02)
        assert fields(log.get(1)) == fields(entry)

    def test_stored_entries_equal_appended_ones(self):
        log = RecoveryLog()
        appended = [
            log.append(f"w{i}", 0.01 * (i + 1), weight=1 + i % 3) for i in range(7)
        ]
        for entry in appended:
            assert entry.write_id == entry.index + 1
            assert fields(log.get(entry.index)) == fields(entry)
        assert [fields(e) for e in log.entries_from(3)] == [
            fields(e) for e in appended[3:]
        ]
        assert fields(log.get(-1)) == fields(appended[-1])
        with pytest.raises(IndexError):
            log.get(7)

    def test_replayed_backend_reaches_live_digest(self, kernel, directory):
        """A replica synced only from the stored columns ends in the state
        of the one that applied the appended entries live."""
        live, synced = (mysql(kernel, directory, host) for host in ("n1", "n2"))
        log = RecoveryLog()
        for i in range(12):
            live.execute_write(
                log.append(f"w{i % 4}", 0.001 * (i + 1), 1 + i % 2), ignore, ignore
            )
        kernel.run()
        for entry in log.entries_from(0):
            synced.replay_write(entry, ignore, ignore)
        kernel.run()
        assert synced.applied_index == live.applied_index == 12
        assert synced.state_digest == live.state_digest

    def test_entries_from_suffix(self):
        log = RecoveryLog()
        for i in range(6):
            log.append(str(i), 0.01)
        suffix = list(log.entries_from(4))
        assert [e.sql for e in suffix] == ["4", "5"]

    def test_entries_from_negative_rejected(self):
        with pytest.raises(IndexError):
            RecoveryLog().entries_from(-1)

    def test_checkpoints(self):
        log = RecoveryLog()
        for _ in range(4):
            log.append("w", 0.01)
        log.set_checkpoint("backend1", 3)
        assert log.checkpoint("backend1") == 3
        assert log.checkpoint("ghost") is None

    def test_checkpoint_bounds(self):
        log = RecoveryLog()
        log.append("w", 0.01)
        with pytest.raises(IndexError):
            log.set_checkpoint("b", 2)
        with pytest.raises(IndexError):
            log.set_checkpoint("b", -1)
        log.set_checkpoint("b", 1)  # == next_index is legal (fully caught up)


class TestDigest:
    def test_deterministic(self):
        a = advance_digest(advance_digest(0, 1), 2)
        b = advance_digest(advance_digest(0, 1), 2)
        assert a == b

    def test_order_sensitive(self):
        ab = advance_digest(advance_digest(0, 1), 2)
        ba = advance_digest(advance_digest(0, 2), 1)
        assert ab != ba

    @given(ids=st.lists(st.integers(min_value=1, max_value=10**9), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_replay_reproduces_digest(self, ids):
        """Replaying the same write sequence always produces the same
        digest — the property the recovery log's correctness rests on."""
        d1 = 0
        for i in ids:
            d1 = advance_digest(d1, i)
        d2 = 0
        for i in ids:
            d2 = advance_digest(d2, i)
        assert d1 == d2

    @given(
        ids=st.lists(
            st.integers(min_value=1, max_value=10**9),
            min_size=2,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_different_prefix_different_digest(self, ids):
        full = 0
        for i in ids:
            full = advance_digest(full, i)
        partial = 0
        for i in ids[:-1]:
            partial = advance_digest(partial, i)
        assert full != partial
