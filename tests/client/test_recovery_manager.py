"""Tests for the WAL recovery manager (direct backend)."""

import pytest

from repro.client.node import ClientNode
from repro.client.recovery_manager import (
    Database,
    TransactionError,
    TxnStatus,
    decode,
    encode_abort,
    encode_begin,
    encode_checkpoint,
    encode_commit,
    encode_redo,
    encode_undo,
    encode_update,
)
from repro.client.splitting import UndoCache

from ..conftest import drain


class TestEncoding:
    def test_roundtrips(self):
        assert decode(encode_begin(7)) == ("B", "7")
        assert decode(encode_update(1, "k", "old", "new")) == (
            "U", "1", "k", "old", "new")
        assert decode(encode_redo(2, "k", "v")) == ("R", "2", "k", "v")
        assert decode(encode_undo(3, "k", "o")) == ("N", "3", "k", "o")
        assert decode(encode_commit(4)) == ("C", "4")
        assert decode(encode_abort(5)) == ("A", "5")
        assert decode(encode_checkpoint([1, 2])) == ("K", "1,2")

    def test_separator_in_field_rejected(self):
        with pytest.raises(TransactionError):
            encode_update(1, "bad|key", "o", "n")

    def test_unknown_record_rejected(self):
        with pytest.raises(TransactionError):
            decode(b"X|junk")


class TestDatabase:
    def test_cache_over_stable(self):
        db = Database({"a": "1"})
        assert db.read("a") == "1"
        db.write_volatile("a", "2")
        assert db.read("a") == "2"
        assert db.stable["a"] == "1"

    def test_missing_key_reads_empty(self):
        assert Database().read("nope") == ""

    def test_clean_moves_to_stable(self):
        db = Database()
        db.write_volatile("k", "v")
        db.clean_to_stable("k")
        assert db.stable["k"] == "v"
        assert "k" not in db.cache

    def test_crash_drops_cache(self):
        db = Database({"a": "1"})
        db.write_volatile("a", "2")
        db.crash()
        assert db.read("a") == "1"


class TestTransactions:
    def test_commit_makes_updates_durable(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("a", "1"), ("b", "2")]))
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "1"
        assert node.db.stable["b"] == "2"

    def test_abort_restores_old_values(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("a", "1")]))
        drain(node.run_transaction([("a", "BAD")], abort=True))
        assert node.read("a") == "1"

    def test_abort_without_splitting_reads_log(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("a", "1"), ("b", "2")], abort=True))
        assert node.rm.remote_abort_reads == 2

    def test_double_commit_rejected(self):
        node, _ = ClientNode.direct()
        txn = drain(node.rm.begin())
        drain(node.rm.commit(txn))
        with pytest.raises(TransactionError):
            drain(node.rm.commit(txn))

    def test_update_after_abort_rejected(self):
        node, _ = ClientNode.direct()
        txn = drain(node.rm.begin())
        drain(node.rm.abort(txn))
        with pytest.raises(TransactionError):
            drain(node.rm.update(txn, "a", "1"))

    def test_status_transitions(self):
        node, _ = ClientNode.direct()
        txn = drain(node.rm.begin())
        assert txn.status is TxnStatus.ACTIVE
        drain(node.rm.commit(txn))
        assert txn.status is TxnStatus.COMMITTED

    def test_per_transaction_accounting(self):
        node, _ = ClientNode.direct()
        txn = drain(node.run_transaction([("a", "1"), ("b", "2")]))
        assert txn.records_written == 4  # begin + 2 updates + commit
        assert txn.bytes_logged > 0


class TestRestartRecovery:
    def test_in_flight_transaction_undone(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("a", "committed")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "dirty"))
        node.crash()
        summary = drain(node.restart())
        assert node.db.stable["a"] == "committed"
        assert summary["winners"] == 1
        assert summary["losers"] >= 1

    def test_loser_cleaned_to_stable_is_rolled_back(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("a", "good")]))
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "uncommitted"))
        drain(node.rm.clean_page("a"))  # propagate dirty page
        assert node.db.stable["a"] == "uncommitted"
        node.crash()
        drain(node.restart())
        assert node.db.stable["a"] == "good"

    def test_interleaved_transactions(self):
        node, _ = ClientNode.direct()
        t1 = drain(node.rm.begin())
        t2 = drain(node.rm.begin())
        drain(node.rm.update(t1, "x", "t1"))
        drain(node.rm.update(t2, "y", "t2"))
        drain(node.rm.commit(t1))
        # t2 in flight at crash
        node.crash()
        drain(node.restart())
        assert node.db.stable.get("x") == "t1"
        assert node.db.stable.get("y", "") == ""

    def test_aborted_transaction_stays_aborted_after_recovery(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("k", "keep")]))
        drain(node.run_transaction([("k", "rollback")], abort=True))
        node.crash()
        drain(node.restart())
        assert node.db.stable["k"] == "keep"

    def test_multiple_crashes(self):
        node, _ = ClientNode.direct()
        for round_no in range(3):
            drain(node.run_transaction([("counter", str(round_no))]))
            node.crash()
            drain(node.restart())
        assert node.db.stable["counter"] == "2"
        assert node.crashes == 3

    def test_recovery_with_checkpoints_present(self):
        node, _ = ClientNode.direct(checkpoint_every=2)
        for i in range(6):
            drain(node.run_transaction([(f"k{i}", str(i))]))
        node.crash()
        summary = drain(node.restart())
        for i in range(6):
            assert node.db.stable[f"k{i}"] == str(i)
        assert summary["winners"] == 6


class TestCleaning:
    def test_clean_all_flushes_cache(self):
        node, _ = ClientNode.direct()
        drain(node.run_transaction([("a", "1"), ("b", "2")]))
        drain(node.rm.clean_all())
        assert node.db.cache == {}
        assert node.db.stable["a"] == "1"

    def test_clean_forces_log_first(self):
        """WAL: the log force precedes the page write."""
        node, _ = ClientNode.direct()
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "v"))
        backend_log = node.backend.replicated_log
        writes_before = backend_log.writes_performed
        drain(node.rm.clean_page("a"))
        # no new records needed (combined records already logged), but
        # the page moved and the log was forced (a no-op force here)
        assert node.db.stable["a"] == "v"
        assert backend_log.writes_performed == writes_before


class FlakyBackend:
    """An in-memory log backend with scripted quorum losses.

    ``fail_logs`` / ``fail_forces`` count down: while positive, the
    next call raises ``NotEnoughServers`` (the log lost its quorum and,
    as with a real re-initialization, every record buffered under the
    old quorum is gone).
    """

    def __init__(self):
        self.records = []
        self._buffered = []
        self.fail_logs = 0
        self.fail_forces = 0
        self.reinits = 0

    def log(self, data, kind="data"):
        from repro.core.errors import NotEnoughServers

        if self.fail_logs > 0:
            self.fail_logs -= 1
            self._buffered.clear()
            raise NotEnoughServers("log quorum lost")
        self._buffered.append((data, kind))
        return len(self.records) + len(self._buffered)
        yield  # pragma: no cover — generator protocol

    def force(self):
        from repro.core.errors import NotEnoughServers

        if self.fail_forces > 0:
            self.fail_forces -= 1
            self._buffered.clear()
            raise NotEnoughServers("force quorum lost")
        self.records.extend(self._buffered)
        self._buffered.clear()
        return None
        yield  # pragma: no cover

    def reinitialize(self):
        self.reinits += 1
        self._buffered.clear()
        return None
        yield  # pragma: no cover


class TestLogRetryUnderQuorumLoss:
    def _manager(self, backend):
        from repro.client.recovery_manager import RecoveryManager

        db = Database()
        rm = RecoveryManager(backend, db,
                             reinitialize=backend.reinitialize)
        return rm, db

    def test_begin_retried_after_transient_loss(self, drive):
        backend = FlakyBackend()
        backend.fail_logs = 1
        rm, _db = self._manager(backend)
        txn = drive(rm.begin())
        assert txn.txid == 1
        assert rm.backend_recoveries == 1
        assert backend.reinits == 1

    def test_mid_transaction_loss_not_silently_retried(self, drive):
        from repro.core.errors import NotEnoughServers

        backend = FlakyBackend()
        rm, _db = self._manager(backend)
        txn = drive(rm.begin())
        # the begin record is already buffered under the old quorum; a
        # retry would lose it and lie about durability — must raise
        backend.fail_logs = 1
        with pytest.raises(NotEnoughServers):
            drive(rm.update(txn, "a", "1"))
        assert rm.backend_recoveries == 0

    def test_without_reinitialize_failures_propagate(self, drive):
        from repro.core.errors import NotEnoughServers
        from repro.client.recovery_manager import RecoveryManager

        backend = FlakyBackend()
        backend.fail_logs = 1
        rm = RecoveryManager(backend, Database())
        with pytest.raises(NotEnoughServers):
            drive(rm.begin())

    def test_commit_loss_aborts_rolls_back_and_recovers(self, drive):
        from repro.client.recovery_manager import TransactionAborted

        backend = FlakyBackend()
        rm, db = self._manager(backend)
        db.write_volatile("a", "0")
        txn = drive(rm.begin())
        drive(rm.update(txn, "a", "1"))
        assert db.read("a") == "1"
        backend.fail_forces = 1
        with pytest.raises(TransactionAborted):
            drive(rm.commit(txn))
        # volatile state rolled back, transaction closed, log restored
        assert db.read("a") == "0"
        assert txn.status is TxnStatus.ABORTED
        assert txn.txid not in rm.active
        assert rm.backend_recoveries == 1
        # the caller can simply run the transaction again
        txn2 = drive(rm.begin())
        drive(rm.update(txn2, "a", "1"))
        drive(rm.commit(txn2))
        assert txn2.status is TxnStatus.COMMITTED
        assert db.read("a") == "1"

    def test_commit_loss_discards_cached_undo(self, drive):
        from repro.client.recovery_manager import RecoveryManager, TransactionAborted

        backend = FlakyBackend()
        cache = UndoCache()
        db = Database()
        rm = RecoveryManager(backend, db, undo_cache=cache,
                             reinitialize=backend.reinitialize)
        txn = drive(rm.begin())
        drive(rm.update(txn, "k", "v"))
        backend.fail_forces = 1
        with pytest.raises(TransactionAborted):
            drive(rm.commit(txn))
        assert cache.take_for_abort(txn.txid) == []
