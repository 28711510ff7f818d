"""Tests for the log-server store (Section 3.1.1 semantics)."""

import pytest

from repro.core.errors import ProtocolError, RecordNotStored, ServerUnavailable
from repro.core.intervals import Interval
from repro.core.procedure import (
    ACK,
    COPY,
    GEN_READ,
    INSTALL,
    INTERVAL_LIST,
    READ,
    Call,
)
from repro.core.records import StoredRecord
from repro.core.store import LogServerStore, store_performer


@pytest.fixture
def store():
    return LogServerStore("s1")


class TestServerWriteLog:
    def test_write_and_read_back(self, store):
        store.server_write_log("c1", 1, 1, True, b"data")
        record = store.server_read_log("c1", 1)
        assert record.lsn == 1
        assert record.epoch == 1
        assert record.present
        assert record.data == b"data"

    def test_lsns_non_decreasing_within_epoch(self, store):
        store.server_write_log("c1", 1, 1, True)
        store.server_write_log("c1", 2, 1, True)
        with pytest.raises(ProtocolError):
            store.server_write_log("c1", 2, 1, True, b"different")

    def test_lsn_regression_rejected(self, store):
        store.server_write_log("c1", 5, 1, True)
        with pytest.raises(ProtocolError):
            store.server_write_log("c1", 4, 1, True)

    def test_epoch_regression_rejected(self, store):
        store.server_write_log("c1", 1, 3, True)
        with pytest.raises(ProtocolError):
            store.server_write_log("c1", 2, 1, True)

    def test_same_lsn_higher_epoch_accepted(self, store):
        # Figure 3-1, Server 1: ⟨3,1⟩ then ⟨3,3⟩
        store.server_write_log("c1", 3, 1, True, b"old")
        store.server_write_log("c1", 3, 3, True, b"new")
        assert store.server_read_log("c1", 3).epoch == 3

    def test_gap_creates_new_sequence(self, store):
        store.server_write_log("c1", 1, 1, True)
        store.server_write_log("c1", 5, 1, True)
        report = store.interval_list("c1")
        assert report.intervals == (Interval(1, 1, 1), Interval(1, 5, 5))

    def test_duplicate_retransmission_silently_accepted(self, store):
        store.server_write_log("c1", 1, 1, True, b"x")
        store.server_write_log("c1", 1, 1, True, b"x")  # no raise
        assert store.write_ops == 1

    def test_conflicting_rewrite_rejected(self, store):
        store.server_write_log("c1", 1, 1, True, b"x")
        with pytest.raises(ProtocolError):
            store.server_write_log("c1", 1, 1, True, b"different")

    def test_clients_are_independent(self, store):
        store.server_write_log("c1", 1, 1, True, b"a")
        store.server_write_log("c2", 10, 5, True, b"b")
        assert store.server_read_log("c1", 1).data == b"a"
        assert store.server_read_log("c2", 10).data == b"b"
        assert store.known_clients() == ["c1", "c2"]


    def test_not_present_record_carries_no_data(self, store):
        with pytest.raises(ValueError):
            store.server_write_log("c1", 1, 1, False, b"data")
        assert store.dump_table("c1") == []


class TestServerReadLog:
    def test_unstored_lsn_is_no_response(self, store):
        store.server_write_log("c1", 1, 1, True)
        with pytest.raises(RecordNotStored):
            store.server_read_log("c1", 2)

    def test_not_present_records_are_returned(self, store):
        # "it must respond to requests for records that are stored,
        # regardless of whether they are marked present or not"
        store.server_write_log("c1", 1, 1, False)
        record = store.server_read_log("c1", 1)
        assert not record.present

    def test_returns_highest_epoch_copy(self, store):
        store.server_write_log("c1", 1, 1, True, b"old")
        store.server_write_log("c1", 1, 2, True, b"new")
        assert store.server_read_log("c1", 1).data == b"new"


class TestIntervalList:
    def test_empty_client(self, store):
        assert store.interval_list("nobody").intervals == ()

    def test_figure_3_1_server_1(self, store):
        for lsn in (1, 2, 3):
            store.server_write_log("C", lsn, 1, True)
        store.server_write_log("C", 3, 3, True)
        store.server_write_log("C", 4, 3, False)
        for lsn in range(5, 10):
            store.server_write_log("C", lsn, 3, True)
        report = store.interval_list("C")
        assert report.intervals == (Interval(1, 1, 3), Interval(3, 3, 9))
        assert report.server_id == "s1"


class TestCopyInstall:
    def test_copies_invisible_until_install(self, store):
        store.server_write_log("c1", 1, 1, True, b"v1")
        store.copy_log("c1", 1, 2, True, b"v1")
        assert store.server_read_log("c1", 1).epoch == 1
        store.install_copies("c1", 2)
        assert store.server_read_log("c1", 1).epoch == 2

    def test_copy_below_high_water_mark_allowed(self, store):
        for lsn in (1, 2, 3):
            store.server_write_log("c1", lsn, 1, True)
        store.copy_log("c1", 2, 2, True, b"copy")
        store.install_copies("c1", 2)
        assert store.server_read_log("c1", 2).epoch == 2

    def test_copy_epoch_must_exceed_high_epoch(self, store):
        store.server_write_log("c1", 1, 3, True)
        with pytest.raises(ProtocolError):
            store.copy_log("c1", 1, 3, True)
        with pytest.raises(ProtocolError):
            store.copy_log("c1", 1, 2, True)

    def test_install_without_staged_is_noop(self, store):
        assert store.install_copies("c1", 9) == 0

    def test_install_is_atomic_batch(self, store):
        store.server_write_log("c1", 1, 1, True)
        store.copy_log("c1", 1, 2, True, b"a")
        store.copy_log("c1", 2, 2, False)
        installed = store.install_copies("c1", 2)
        assert installed == 2
        assert store.server_read_log("c1", 1).epoch == 2
        assert not store.server_read_log("c1", 2).present

    def test_install_orders_by_lsn(self, store):
        store.copy_log("c1", 2, 2, True, b"b")
        store.copy_log("c1", 1, 2, True, b"a")
        store.install_copies("c1", 2)
        table = store.dump_table("c1")
        assert table == [(1, 2, "yes"), (2, 2, "yes")]


class TestLsnIndex:
    """``ClientLogState.lsns``: the stored LSNs, ascending, kept
    incrementally (tests/rt/test_read_index.py has the property test
    over the durable store)."""

    def test_appends_rewrites_hole_fills_and_truncation(self, store):
        for lsn in (1, 2, 5, 6):
            store.server_write_log("c1", lsn, 1, True)
        state = store.client_state("c1")
        assert state.lsns == [1, 2, 5, 6] and state.high_lsn == 6
        store.server_write_log("c1", 2, 2, True, b"rewrite")  # stored LSN
        store.server_write_log("c1", 4, 2, True)  # hole below the high
        assert state.lsns == [1, 2, 4, 5, 6] and state.high_lsn == 6
        store.copy_log("c1", 3, 3, True)
        store.copy_log("c1", 7, 3, False)
        assert state.lsns == [1, 2, 4, 5, 6]  # staged copies are invisible
        store.install_copies("c1", 3)
        assert state.lsns == [1, 2, 3, 4, 5, 6, 7]
        index = state.lsns
        store.truncate_below("c1", 5)
        assert state.lsns == [5, 6, 7] and state.lsns is index
        store.truncate_below("c1", 9)
        assert state.lsns == [] and state.high_lsn is None

    def test_find_client_never_creates_state(self, store):
        assert store.find_client("ghost") is None
        assert store.known_clients() == []
        store.server_write_log("c1", 1, 1, True)
        assert store.find_client("c1") is store.client_state("c1")


class TestAvailability:
    def test_crashed_store_refuses_everything(self, store):
        store.server_write_log("c1", 1, 1, True)
        store.crash()
        with pytest.raises(ServerUnavailable):
            store.server_write_log("c1", 2, 1, True)
        with pytest.raises(ServerUnavailable):
            store.server_read_log("c1", 1)
        with pytest.raises(ServerUnavailable):
            store.interval_list("c1")
        with pytest.raises(ServerUnavailable):
            store.copy_log("c1", 1, 2, True)
        with pytest.raises(ServerUnavailable):
            store.install_copies("c1", 2)

    def test_durable_state_survives_crash(self, store):
        store.server_write_log("c1", 1, 1, True, b"kept")
        store.crash()
        store.restart()
        assert store.server_read_log("c1", 1).data == b"kept"


class TestDumpTable:
    def test_matches_figure_format(self, store):
        store.server_write_log("c1", 1, 1, True)
        store.server_write_log("c1", 2, 1, False)
        assert store.dump_table("c1") == [(1, 1, "yes"), (2, 1, "no")]


class TestStorePerformer:
    def test_answers_each_log_server_operation(self, store):
        perform = store_performer({"s1": store}, "c1")
        store.server_write_log("c1", 1, 1, True, b"v")
        assert perform(Call("s1", INTERVAL_LIST)) == (Interval(1, 1, 1),)
        (record,) = perform(Call("s1", READ, (1,)))
        assert record.data == b"v"
        copy = StoredRecord(lsn=1, epoch=2, data=b"v2")
        assert perform(Call("s1", COPY, (2, (copy,)))) is ACK
        assert perform(Call("s1", INSTALL, (2,))) is ACK
        assert store.dump_table("c1") == [(1, 1, "yes"), (1, 2, "yes")]

    def test_missing_or_crashed_server_is_unavailable(self, store):
        perform = store_performer({"s1": store}, "c1")
        with pytest.raises(ServerUnavailable):
            perform(Call("s2", INTERVAL_LIST))
        store.crash()
        with pytest.raises(ServerUnavailable):
            perform(Call("s1", INTERVAL_LIST))

    def test_generator_calls_are_not_a_stores(self, store):
        with pytest.raises(NotImplementedError):
            store_performer({"s1": store}, "c1")(Call("s1", GEN_READ))
