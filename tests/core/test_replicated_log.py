"""Tests for the client-side replicated-log algorithm (Section 3.1.2)."""

import pytest

from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.core.errors import (
    LSNNotWritten,
    NotEnoughServers,
    NotInitialized,
    RecordNotPresent,
)
from repro.core.replicated_log import ReplicatedLog
from repro.core.store import LogServerStore

from ..conftest import build_direct_log


class TestBasicOperations:
    def test_write_returns_increasing_lsns(self, direct_log):
        log, _ = direct_log
        lsns = [log.write(b"r%d" % i) for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_read_returns_written_data(self, direct_log):
        log, _ = direct_log
        lsn = log.write(b"hello", kind="redo")
        record = log.read(lsn)
        assert record.data == b"hello"
        assert record.kind == "redo"
        assert record.lsn == lsn

    def test_end_of_log_tracks_writes(self, direct_log):
        log, _ = direct_log
        before = log.end_of_log()
        lsn = log.write(b"x")
        assert log.end_of_log() == lsn == before + 1

    def test_read_beyond_end_signals_exception(self, direct_log):
        log, _ = direct_log
        with pytest.raises(LSNNotWritten):
            log.read(log.end_of_log() + 1)

    def test_read_guard_record_signals_not_present(self, direct_log):
        log, _ = direct_log
        # initialization wrote a guard at LSN 1 (δ=1, empty log)
        with pytest.raises(RecordNotPresent):
            log.read(1)

    def test_operations_require_initialization(self):
        stores = {f"s{i}": LogServerStore(f"s{i}") for i in range(3)}
        log = ReplicatedLog("c1", stores, ReplicationConfig(3, 2),
                            make_generator(3))
        with pytest.raises(NotInitialized):
            log.write(b"x")
        with pytest.raises(NotInitialized):
            log.read(1)
        with pytest.raises(NotInitialized):
            log.end_of_log()

    def test_port_count_must_match_config(self):
        stores = {"s0": LogServerStore("s0")}
        with pytest.raises(NotEnoughServers):
            ReplicatedLog("c1", stores, ReplicationConfig(3, 2),
                          make_generator(3))


class TestReplication:
    def test_each_record_on_n_servers(self, direct_log):
        log, stores = direct_log
        lsn = log.write(b"x")
        holders = [
            sid for sid, st in stores.items()
            if any(r.lsn == lsn for r in st.client_state("c1").records)
        ]
        assert len(holders) == 2

    def test_read_uses_single_server(self, direct_log):
        log, stores = direct_log
        lsn = log.write(b"x")
        reads_before = sum(st.read_ops for st in stores.values())
        log.read(lsn)
        reads_after = sum(st.read_ops for st in stores.values())
        assert reads_after - reads_before == 1

    def test_write_switches_server_on_failure(self, direct_log):
        log, stores = direct_log
        log.write(b"before")
        victim = log.write_set[0]
        stores[victim].crash()
        lsn = log.write(b"after")
        assert victim not in log.write_set
        assert log.read(lsn).data == b"after"

    def test_write_fails_below_n_servers(self, direct_log):
        log, stores = direct_log
        survivors = list(log.write_set)
        for sid in stores:
            if sid != survivors[0]:
                stores[sid].crash()
        with pytest.raises(NotEnoughServers):
            log.write(b"x")

    def test_failed_write_requires_reinitialization(self, direct_log):
        log, stores = direct_log
        for sid in list(stores)[1:]:
            stores[sid].crash()
        with pytest.raises(NotEnoughServers):
            log.write(b"x")
        with pytest.raises(NotInitialized):
            log.write(b"y")
        for st in stores.values():
            st.restart()
        log.initialize()
        assert log.read(log.write(b"z")).data == b"z"

    def test_read_falls_over_to_other_replica(self, direct_log):
        log, stores = direct_log
        lsn = log.write(b"x")
        # crash one of the two holders; read must still succeed
        holder = log.write_set[0]
        stores[holder].crash()
        assert log.read(lsn).data == b"x"

    def test_read_fails_when_all_replicas_down(self, direct_log):
        log, stores = direct_log
        lsn = log.write(b"x")
        for sid in log.write_set:
            stores[sid].crash()
        with pytest.raises(NotEnoughServers):
            log.read(lsn)


class TestCrashRestart:
    def test_restart_preserves_written_records(self, direct_log):
        log, _ = direct_log
        lsns = [log.write(b"r%d" % i) for i in range(5)]
        log.crash()
        log.initialize()
        for i, lsn in enumerate(lsns):
            assert log.read(lsn).data == b"r%d" % i

    def test_epoch_increases_across_restarts(self, direct_log):
        log, _ = direct_log
        first = log.current_epoch
        log.crash()
        log.initialize()
        assert log.current_epoch > first

    def test_lsns_continue_after_restart(self, direct_log):
        log, _ = direct_log
        last = log.write(b"x")
        log.crash()
        log.initialize()
        nxt = log.write(b"y")
        assert nxt > last

    def test_restart_masks_partial_write(self):
        """A record on fewer than N servers is masked or completed."""
        log, stores = build_direct_log(m=3, n=2)
        log.write(b"complete")
        # simulate a partial write: next LSN reaches only one server
        partial_lsn = log.end_of_log() + 1
        victim = log.write_set[0]
        stores[victim].server_write_log("c1", partial_lsn, log.current_epoch,
                                        True, b"partial")
        log.crash()
        log.initialize()
        # consistency: either readable (copied to N) or masked forever
        try:
            data = log.read(partial_lsn)
            outcome_one = data.data == b"partial"
        except (RecordNotPresent, LSNNotWritten):
            outcome_one = True
        assert outcome_one
        # and the answer must be stable across further restarts
        try:
            first = log.read(partial_lsn).data
        except (RecordNotPresent, LSNNotWritten):
            first = None
        log.crash()
        log.initialize()
        try:
            second = log.read(partial_lsn).data
        except (RecordNotPresent, LSNNotWritten):
            second = None
        assert first == second

    def test_partial_write_visible_when_holder_in_quorum(self):
        """If the holder's interval list is merged, the record survives."""
        log, stores = build_direct_log(m=2, n=2)
        log.write(b"full")
        partial_lsn = log.end_of_log() + 1
        holder = log.write_set[0]
        stores[holder].server_write_log("c1", partial_lsn, log.current_epoch,
                                        True, b"partial")
        log.crash()
        log.initialize()  # with M=N=2 both servers are in every quorum
        assert log.read(partial_lsn).data == b"partial"
        # and it is now on N servers
        holders = [
            sid for sid, st in stores.items()
            if any(r.lsn == partial_lsn and r.present
                   for r in st.client_state("c1").records)
        ]
        assert len(holders) == 2

    def test_init_needs_quorum(self, direct_log):
        log, stores = direct_log
        log.crash()
        # down N-1+1 = 2 servers: only 1 interval list left < M-N+1 = 2
        downed = list(stores)[:2]
        for sid in downed:
            stores[sid].crash()
        with pytest.raises(NotEnoughServers):
            log.initialize()

    def test_delta_records_copied_on_restart(self):
        log, stores = build_direct_log(m=3, n=2, delta=3)
        for i in range(6):
            log.write(b"r%d" % i)
        before_epoch = log.current_epoch
        log.crash()
        log.initialize()
        # the last δ=3 records were rewritten under the new epoch
        new_epoch = log.current_epoch
        assert new_epoch > before_epoch
        copied = 0
        for st in stores.values():
            copied += sum(
                1 for r in st.client_state("c1").records
                if r.epoch == new_epoch and r.present
            )
        assert copied == 3 * 2  # δ copies on N servers

    def test_iter_backward_skips_guards(self, direct_log):
        log, _ = direct_log
        log.write(b"a")
        log.write(b"b")
        log.crash()
        log.initialize()
        datas = [record.data for record in log.iter_backward()]
        assert datas == [b"b", b"a"]

    def test_iter_forward_range(self, direct_log):
        log, _ = direct_log
        lsns = [log.write(b"%d" % i) for i in range(4)]
        records = list(log.iter_forward(lsns[1], lsns[2]))
        assert [r.data for r in records] == [b"1", b"2"]

    def test_last_present_lsn(self, direct_log):
        log, _ = direct_log
        lsn = log.write(b"x")
        log.crash()
        log.initialize()
        # end_of_log includes the new guard; last present is the copy
        assert log.end_of_log() > lsn
        assert log.last_present_lsn() == lsn


class TestEndOfLogSemantics:
    def test_empty_log_after_init_has_guard(self, direct_log):
        log, _ = direct_log
        # fresh init on an empty log writes δ guards: EndOfLog = 1
        assert log.end_of_log() == 1
        assert log.last_present_lsn() is None

    def test_multiple_restarts_accumulate_guards(self, direct_log):
        log, _ = direct_log
        end0 = log.end_of_log()
        log.crash()
        log.initialize()
        assert log.end_of_log() == end0 + 1
