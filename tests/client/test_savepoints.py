"""Tests for savepoints and partial rollback (Section 2's long txns)."""

import pytest

from repro.client.node import ClientNode
from repro.client.recovery_manager import TransactionError
from repro.client.splitting import UndoCache

from ..conftest import drain


def make_node(split=False):
    node, _ = ClientNode.direct(
        m=3, n=2, undo_cache=UndoCache() if split else None)
    return node


class TestSavepointBasics:
    def test_rollback_restores_values(self):
        node = make_node()
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "1"))
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "a", "2"))
        drain(node.rm.update(txn, "b", "x"))
        undone = drain(node.rm.rollback_to_savepoint(txn, sp))
        assert undone == 2
        assert node.read("a") == "1"
        assert node.read("b") == ""
        drain(node.rm.commit(txn))
        assert node.read("a") == "1"

    def test_transaction_continues_after_rollback(self):
        node = make_node()
        txn = drain(node.rm.begin())
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "k", "discarded"))
        drain(node.rm.rollback_to_savepoint(txn, sp))
        drain(node.rm.update(txn, "k", "kept"))
        drain(node.rm.commit(txn))
        assert node.read("k") == "kept"

    def test_unknown_savepoint_rejected(self):
        node = make_node()
        txn = drain(node.rm.begin())
        with pytest.raises(TransactionError):
            drain(node.rm.rollback_to_savepoint(txn, 42))

    def test_nested_savepoints(self):
        node = make_node()
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "x", "1"))
        sp1 = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "x", "2"))
        sp2 = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "x", "3"))
        drain(node.rm.rollback_to_savepoint(txn, sp2))
        assert node.read("x") == "2"
        drain(node.rm.rollback_to_savepoint(txn, sp1))
        assert node.read("x") == "1"
        drain(node.rm.commit(txn))

    def test_rollback_invalidates_later_savepoints(self):
        node = make_node()
        txn = drain(node.rm.begin())
        sp1 = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "x", "1"))
        sp2 = drain(node.rm.savepoint(txn))
        drain(node.rm.rollback_to_savepoint(txn, sp1))
        with pytest.raises(TransactionError):
            drain(node.rm.rollback_to_savepoint(txn, sp2))

    def test_savepoint_forces_log(self):
        node = make_node()
        log = node.backend.replicated_log
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "1"))
        before = log.writes_performed
        drain(node.rm.savepoint(txn))
        assert log.writes_performed == before + 1  # the S record

    def test_rollback_with_undo_cache(self):
        node = make_node(split=True)
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "keep"))
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "a", "drop"))
        drain(node.rm.rollback_to_savepoint(txn, sp))
        assert node.read("a") == "keep"
        # the rolled-back component left the cache
        assert len(node.rm.undo_cache) == 1
        drain(node.rm.commit(txn))


class TestSavepointRecovery:
    def test_rolled_back_updates_void_after_crash(self):
        node = make_node()
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "good"))
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "a", "experimental"))
        drain(node.rm.rollback_to_savepoint(txn, sp))
        drain(node.rm.commit(txn))
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "good"

    def test_rollback_after_clean_still_recovers(self):
        node = make_node()
        drain(node.run_transaction([("a", "base")]))
        txn = drain(node.rm.begin())
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "a", "dirty"))
        drain(node.rm.clean_page("a"))  # contaminate stable
        drain(node.rm.rollback_to_savepoint(txn, sp))
        drain(node.rm.commit(txn))
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "base"

    def test_in_flight_txn_with_savepoints_fully_undone(self):
        node = make_node()
        drain(node.run_transaction([("a", "committed")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "v1"))
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "a", "v2"))
        # crash with the transaction (and its savepoint) in flight
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "committed"

    def test_updates_after_rollback_survive(self):
        node = make_node()
        txn = drain(node.rm.begin())
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "k", "first-try"))
        drain(node.rm.rollback_to_savepoint(txn, sp))
        drain(node.rm.update(txn, "k", "second-try"))
        drain(node.rm.commit(txn))
        node.crash()
        drain(node.restart())
        assert node.db.stable["k"] == "second-try"

    def test_split_mode_savepoint_recovery(self):
        node = make_node(split=True)
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "keep"))
        sp = drain(node.rm.savepoint(txn))
        drain(node.rm.update(txn, "a", "drop"))
        drain(node.rm.clean_page("a"))  # undo component hits the log
        drain(node.rm.rollback_to_savepoint(txn, sp))
        drain(node.rm.commit(txn))
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "keep"
