"""Tests for database dumps and media recovery (Section 5.3)."""

import pytest

from repro.client.node import ClientNode
from repro.client.splitting import UndoCache
from repro.client.dumps import DumpManager

from ..conftest import drain


@pytest.fixture
def node():
    node, _stores = ClientNode.direct(m=3, n=2)
    return node


class TestTakeDump:
    def test_dump_snapshots_committed_state(self, node):
        drain(node.run_transaction([("a", "1"), ("b", "2")]))
        dumps = DumpManager(node.rm)
        dump = drain(dumps.take_dump())
        assert dump.contents["a"] == "1"
        assert dump.contents["b"] == "2"
        assert dump.dump_lsn > 0
        assert dumps.latest is dump

    def test_dump_is_a_copy(self, node):
        drain(node.run_transaction([("a", "1")]))
        dumps = DumpManager(node.rm)
        dump = drain(dumps.take_dump())
        drain(node.run_transaction([("a", "2")]))
        drain(node.rm.clean_all())
        assert dump.contents["a"] == "1"

    def test_replay_from_accounts_for_active_txns(self, node):
        drain(node.run_transaction([("a", "1")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "b", "wip"))
        dumps = DumpManager(node.rm)
        dump = drain(dumps.take_dump())
        assert dump.replay_from <= txn.begin_lsn
        drain(node.rm.commit(txn))

    def test_idle_dump_replays_from_tail(self, node):
        drain(node.run_transaction([("a", "1")]))
        dumps = DumpManager(node.rm)
        dump = drain(dumps.take_dump())
        assert dump.replay_from == dump.dump_lsn + 1


class TestMediaRecovery:
    def test_recovers_post_dump_transactions(self, node):
        drain(node.run_transaction([("a", "old")]))
        dumps = DumpManager(node.rm)
        drain(dumps.take_dump())
        drain(node.run_transaction([("a", "new"), ("b", "late")]))
        # media failure: the data disk is destroyed
        node.db.stable.clear()
        node.db.cache.clear()
        summary = drain(dumps.media_recovery())
        assert node.db.stable["a"] == "new"
        assert node.db.stable["b"] == "late"
        assert summary["replayed_from_lsn"] == dumps.latest.replay_from

    def test_bounded_replay(self, node):
        """Media recovery reads only the post-dump log suffix."""
        for i in range(10):
            drain(node.run_transaction([(f"k{i}", str(i))]))
        dumps = DumpManager(node.rm)
        drain(dumps.take_dump())
        drain(node.run_transaction([("after", "x")]))
        node.db.stable.clear()
        summary = drain(dumps.media_recovery())
        # pre-dump records (10 txns × 3 records) were not re-scanned
        assert summary["records_scanned"] <= 5
        assert node.db.stable["k3"] == "3"  # from the dump
        assert node.db.stable["after"] == "x"  # from the replay

    def test_in_flight_txn_at_dump_rolls_back(self, node):
        drain(node.run_transaction([("a", "good")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "wip"))
        dumps = DumpManager(node.rm)
        drain(dumps.take_dump())
        # crash before commit; the dirty page was cleaned into the dump
        node.rm.active.clear()
        node.db.stable.clear()
        drain(dumps.media_recovery())
        assert node.db.stable["a"] == "good"

    def test_requires_a_dump(self, node):
        dumps = DumpManager(node.rm)
        with pytest.raises(RuntimeError):
            drain(dumps.media_recovery())

    def test_works_with_splitting(self):
        node, _ = ClientNode.direct(m=3, n=2, undo_cache=UndoCache())
        drain(node.run_transaction([("x", "1")]))
        dumps = DumpManager(node.rm)
        drain(dumps.take_dump())
        drain(node.run_transaction([("x", "2")]))
        node.db.stable.clear()
        drain(dumps.media_recovery())
        assert node.db.stable["x"] == "2"


class TestTruncationPoints:
    def test_no_dump_needs_everything(self, node):
        dumps = DumpManager(node.rm)
        point = dumps.truncation_point()
        assert point.media_recovery_lsn == 1

    def test_dump_advances_media_point(self, node):
        drain(node.run_transaction([("a", "1")]))
        dumps = DumpManager(node.rm)
        dump = drain(dumps.take_dump())
        point = dumps.truncation_point()
        assert point.media_recovery_lsn == dump.replay_from
        assert point.node_recovery_lsn >= point.media_recovery_lsn

    def test_active_txn_holds_node_point_back(self, node):
        drain(node.run_transaction([("a", "1")]))
        dumps = DumpManager(node.rm)
        drain(dumps.take_dump())
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "b", "wip"))
        drain(node.run_transaction([("c", "2")]))
        point = dumps.truncation_point()
        assert point.node_recovery_lsn <= txn.begin_lsn
        drain(node.rm.commit(txn))
