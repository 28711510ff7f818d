"""Tests for the client-initialization (recovery) procedure."""

import asyncio
import random

import pytest

from repro.core.errors import NotEnoughServers
from repro.core.intervals import MergedIntervalMap
from repro.core.procedure import INSTALL, run
from repro.core.recovery import gather, install_preference, recover
from repro.core.retry import RetryPolicy
from repro.core.store import LogServerStore, store_performer
from repro.rt.client import async_retry


def build_stores(m=3):
    return {f"s{i}": LogServerStore(f"s{i}") for i in range(m)}


def gather_lists(stores, quorum):
    """:func:`gather` over every store, in the dict's order."""
    return run(gather(tuple(stores), quorum), store_performer(stores, "c1"))


def recover_on(stores, lists, new_epoch, copies, delta, preferred=(),
               perform=None):
    """:func:`recover` from ``lists``, copying to ``preferred`` first."""
    return run(
        recover(MergedIntervalMap.merge(lists),
                tuple(r.server_id for r in lists), new_epoch, copies, delta,
                install_preference(sorted(stores), preferred)),
        perform or store_performer(stores, "c1"),
    )


class TestGatherIntervalLists:
    def test_collects_from_all_up_servers(self):
        stores = build_stores(3)
        lists = gather_lists(stores, quorum=2)
        assert len(lists) == 3

    def test_quorum_enforced(self):
        stores = build_stores(3)
        stores["s0"].crash()
        stores["s1"].crash()
        with pytest.raises(NotEnoughServers):
            gather_lists(stores, quorum=2)

    def test_exact_quorum_accepted(self):
        stores = build_stores(3)
        stores["s0"].crash()
        lists = gather_lists(stores, quorum=2)
        assert {l.server_id for l in lists} == {"s1", "s2"}


class TestPerformRecovery:
    def test_empty_log_writes_guards_only(self):
        stores = build_stores(3)
        lists = gather_lists(stores, quorum=2)
        result = recover_on(stores, lists, new_epoch=1, copies=2, delta=1)
        assert result.next_lsn == 2  # guard at 1
        assert result.records_copied == 1
        assert len(result.write_set) == 2
        for sid in result.write_set:
            table = stores[sid].dump_table("c1")
            assert table == [(1, 1, "no")]

    def test_last_delta_records_copied(self):
        stores = build_stores(3)
        for lsn in range(1, 6):
            for sid in ("s0", "s1"):
                stores[sid].server_write_log("c1", lsn, 1, True, b"r%d" % lsn)
        lists = gather_lists(stores, quorum=2)
        result = recover_on(stores, lists, new_epoch=2, copies=2, delta=2)
        # records 4,5 copied + guards 6,7
        assert result.records_copied == 4
        assert result.next_lsn == 8
        for sid in result.write_set:
            records = stores[sid].client_state("c1").records
            epoch2 = [(r.lsn, r.present) for r in records if r.epoch == 2]
            assert epoch2 == [(4, True), (5, True), (6, False), (7, False)]

    def test_present_flags_preserved_in_copies(self):
        stores = build_stores(3)
        # a not-present record at the tail (from an earlier recovery)
        for sid in ("s0", "s1"):
            stores[sid].server_write_log("c1", 1, 1, True, b"data")
            stores[sid].server_write_log("c1", 2, 1, False)
        lists = gather_lists(stores, quorum=2)
        result = recover_on(stores, lists, new_epoch=2, copies=2, delta=1)
        for sid in result.write_set:
            copy = stores[sid].client_state("c1").lookup(2)
            assert copy.epoch == 2
            assert not copy.present

    def test_preferred_servers_honoured(self):
        stores = build_stores(4)
        lists = gather_lists(stores, quorum=3)
        result = recover_on(stores, lists, new_epoch=1, copies=2, delta=1,
                            preferred=("s3", "s2"))
        assert result.write_set == ("s3", "s2")

    def test_unavailable_preferred_server_skipped(self):
        stores = build_stores(4)
        stores["s3"].crash()
        lists = gather_lists(stores, quorum=3)
        result = recover_on(stores, lists, new_epoch=1, copies=2, delta=1,
                            preferred=("s3", "s2"))
        assert "s3" not in result.write_set
        assert len(result.write_set) == 2

    def test_insufficient_install_targets(self):
        stores = build_stores(3)
        lists = gather_lists(stores, quorum=2)
        stores["s0"].crash()
        stores["s1"].crash()
        with pytest.raises(NotEnoughServers):
            recover_on(stores, lists, new_epoch=1, copies=2, delta=1)

    def test_recovery_is_restartable(self):
        """A crash mid-recovery leaves state a later recovery fixes."""
        stores = build_stores(3)
        for sid in ("s0", "s1"):
            stores[sid].server_write_log("c1", 1, 1, True, b"v")
        # first recovery: stage on s0 only (simulate crash after one
        # server staged but before install by doing it manually)
        stores["s0"].copy_log("c1", 1, 2, True, b"v")
        # staged, never installed; epoch 2 burned.  Full recovery at 3:
        lists = gather_lists(stores, quorum=2)
        result = recover_on(stores, lists, new_epoch=3, copies=2, delta=1)
        assert result.epoch == 3
        # the stale staged epoch-2 copy must never become visible
        assert stores["s0"].client_state("c1").lookup(1).epoch == 3

    def test_merged_map_routes_to_installed_servers(self):
        stores = build_stores(3)
        for sid in ("s0", "s1"):
            stores[sid].server_write_log("c1", 1, 1, True, b"v")
        lists = gather_lists(stores, quorum=2)
        result = recover_on(stores, lists, new_epoch=2, copies=2, delta=1)
        # LSN 1 entry now carries the new epoch and the install targets
        assert result.merged.epoch_of(1) == 2
        assert set(result.merged.servers_for(1)) == set(result.write_set)


def crash_on_first_install(stores, server_id):
    """A performer whose ``server_id`` power-fails between CopyLog and
    InstallCopies.

    The staged copies reach the store's durable state, but the install
    never runs — the exact window the restartability argument of
    Section 4.2 is about.
    """
    perform = store_performer(stores, "c1")
    tripped = []

    def crashing(call):
        if call.op == INSTALL and call.server_id == server_id \
                and not tripped:
            tripped.append(call)
            stores[server_id].crash()
        return perform(call)

    return crashing


class TestRecoveryRestartability:
    def _seed_log(self, stores, lsns=range(1, 4)):
        for lsn in lsns:
            for sid in ("s0", "s1"):
                stores[sid].server_write_log("c1", lsn, 1, True,
                                             b"r%d" % lsn)

    def test_crash_between_copy_and_install_leaves_staged_inert(self):
        stores = build_stores(4)
        self._seed_log(stores)
        lists = gather_lists(stores, quorum=3)
        result = recover_on(stores, lists, new_epoch=2, copies=2, delta=2,
                            preferred=("s0", "s1"),
                            perform=crash_on_first_install(stores, "s0"))
        # the crashed server was skipped; recovery still installed N copies
        assert "s0" not in result.write_set
        assert len(result.write_set) == 2

        # its staged epoch-2 records were never installed and stay inert
        state = stores["s0"].client_state("c1")
        assert 2 in state.staged
        assert all(r.epoch != 2 for r in state.records)
        stores["s0"].restart()
        intervals = stores["s0"].interval_list("c1").intervals
        assert all(iv.epoch != 2 for iv in intervals)

    def test_repeated_higher_epoch_recovery_converges(self):
        stores = build_stores(4)
        self._seed_log(stores)
        lists = gather_lists(stores, quorum=3)
        recover_on(stores, lists, new_epoch=2, copies=2, delta=2,
                   preferred=("s0", "s1"),
                   perform=crash_on_first_install(stores, "s0"))
        stores["s0"].restart()

        # the next restart runs the procedure again at a higher epoch;
        # the recovered server participates normally this time
        lists2 = gather_lists(stores, quorum=3)
        result2 = recover_on(stores, lists2, new_epoch=3, copies=2,
                             delta=2, preferred=("s0", "s1"))
        assert result2.write_set == ("s0", "s1")
        # epoch 2 is never reused: the stale staged copies on s0 remain
        # uninstalled while epoch 3 is fully installed
        s0_state = stores["s0"].client_state("c1")
        assert 2 in s0_state.staged
        assert any(r.epoch == 3 for r in s0_state.records)
        assert all(r.epoch != 2 for r in s0_state.records)
        # both installs hold the same records: the merged map agrees
        for lsn in (2, 3):
            datas = {stores[sid].server_read_log("c1", lsn).data
                     for sid in result2.write_set}
            assert datas == {b"r%d" % lsn}


class TestGatherWithRetry:
    """A gather retried through a transient outage, the way the runtime
    client retries its restart (:func:`repro.rt.client.async_retry`)."""

    @staticmethod
    def retried_gather(stores, policy, on_retry=None):
        async def attempt():
            return gather_lists(stores, quorum=2)

        return asyncio.run(async_retry(attempt, policy, random.Random(0),
                                       on_retry=on_retry))

    def test_rides_out_a_transient_outage(self):
        stores = build_stores(3)
        stores["s0"].crash()
        stores["s1"].crash()

        async def repair(attempt):
            if attempt == 1:
                stores["s1"].restart()

        lists = self.retried_gather(
            stores, RetryPolicy(base_delay_s=0.0, cap_delay_s=0.0,
                                max_attempts=4, jitter=0.0),
            on_retry=repair)
        assert {l.server_id for l in lists} == {"s1", "s2"}

    def test_exhaustion_still_raises(self):
        stores = build_stores(3)
        stores["s0"].crash()
        stores["s1"].crash()
        with pytest.raises(NotEnoughServers):
            self.retried_gather(
                stores, RetryPolicy(base_delay_s=0.0, cap_delay_s=0.0,
                                    max_attempts=3, jitter=0.0))
