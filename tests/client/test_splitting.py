"""Tests for log-record splitting and the undo cache (Section 5.2)."""

import pytest

from repro.client.node import ClientNode
from repro.client.splitting import UndoCache, UndoComponent

from ..conftest import drain


class TestUndoCache:
    def test_add_and_commit_discard(self):
        cache = UndoCache()
        cache.add(1, "a", "old-a")
        cache.add(1, "b", "old-b")
        assert len(cache) == 2
        assert cache.discard(1) == 2
        assert len(cache) == 0
        assert cache.components_discarded_on_commit == 2

    def test_abort_serves_newest_first(self):
        cache = UndoCache()
        cache.add(1, "a", "v1")
        cache.add(1, "a", "v2")
        undos = cache.take_for_abort(1)
        assert undos == [("a", "v2"), ("a", "v1")]

    def test_clean_surfaces_key_components_oldest_first(self):
        cache = UndoCache()
        cache.add(1, "page", "x")
        cache.add(2, "page", "y")
        cache.add(3, "other", "z")
        cleaned = cache.take_for_clean("page")
        assert cleaned == [(1, "x"), (2, "y")]
        assert len(cache) == 1
        assert cache.components_logged_on_clean == 2

    def test_byte_accounting(self):
        cache = UndoCache()
        cache.add(1, "key", "value")
        assert cache.bytes_cached == 8 + 3 + 5
        cache.discard(1)
        assert cache.bytes_cached == 0

    def test_overflow_evicts_oldest(self):
        cache = UndoCache(capacity_bytes=40)
        cache.add(1, "aaaa", "1111")  # 16 bytes
        cache.add(2, "bbbb", "2222")
        cache.add(3, "cccc", "3333")  # 48 > 40
        overflow = cache.take_overflow()
        assert [c.txid for c in overflow] == [1]
        assert cache.bytes_cached <= 40
        assert cache.components_evicted == 1

    def test_double_removal_safe(self):
        cache = UndoCache()
        cache.add(1, "k", "v")
        cache.take_for_clean("k")
        assert cache.take_for_abort(1) == []

    def test_clear(self):
        cache = UndoCache()
        cache.add(1, "k", "v")
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_cached == 0

    def test_component_size(self):
        assert UndoComponent(1, "ab", "cde").byte_size == 13

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            UndoCache(capacity_bytes=0)


class TestSplitMode:
    def test_committed_txn_never_logs_undo(self):
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        drain(node.run_transaction([("a", "1"), ("b", "2")]))
        drain(node.rm.clean_all())
        assert node.rm.undo_records_logged == 0

    def test_clean_before_commit_logs_undo(self):
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "dirty"))
        drain(node.rm.clean_page("a"))
        assert node.rm.undo_records_logged == 1
        drain(node.rm.commit(txn))

    def test_abort_is_local(self):
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        drain(node.run_transaction([("a", "keep")]))
        drain(node.run_transaction([("a", "no")], abort=True))
        assert node.read("a") == "keep"
        assert node.rm.remote_abort_reads == 0
        assert node.rm.local_aborts == 1

    def test_split_logs_fewer_bytes_than_combined(self):
        """The Section 5.2 saving: undo bytes never hit the log."""
        def run(undo_cache):
            node, _ = ClientNode.direct(undo_cache=undo_cache)
            drain(node.run_transaction([("key", "A" * 50)]))
            drain(node.run_transaction([("key", "B" * 50)]))
            drain(node.run_transaction([("key", "C" * 50)]))
            return node.rm.bytes_logged

        assert run(UndoCache()) < run(None)

    def test_crash_recovery_correct_with_splitting(self):
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        drain(node.run_transaction([("a", "good")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "bad"))
        drain(node.rm.clean_page("a"))  # undo forced to log first
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "good"

    def test_uncleaned_loser_with_splitting_rolls_back(self):
        """No undo in the log, but stable storage never saw the value."""
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        drain(node.run_transaction([("a", "good")]))
        drain(node.rm.clean_all())
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "bad"))
        node.crash()  # cache (and the undo component) vanish
        drain(node.restart())
        assert node.db.stable["a"] == "good"
