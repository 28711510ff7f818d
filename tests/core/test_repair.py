"""Tests for log-copy repair (Section 5.3)."""

import pytest

from repro.core.errors import NotEnoughServers
from repro.core.intervals import MergedIntervalMap, ServerIntervals
from repro.core.procedure import READ, run
from repro.core.repair import repair, under_replicated_lsns
from repro.core.store import LogServerStore, store_performer

from ..conftest import build_direct_log


def repair_onto(survivors, target, copies, perform=None):
    """Run :func:`repair` over the ``survivors`` stores onto ``target``."""
    stores = {**survivors, target.server_id: target}
    return run(repair(list(survivors), target.server_id, copies),
               perform or store_performer(stores, "c1"))


class TestUnderReplicatedLsns:
    def test_detects_single_copy_records(self):
        merged = MergedIntervalMap()
        merged.note(1, 1, "s0")
        merged.note(1, 1, "s1")
        merged.note(2, 1, "s0")
        assert under_replicated_lsns(merged, 2) == [2]

    def test_fully_replicated_is_empty(self):
        merged = MergedIntervalMap()
        merged.note(1, 1, "a")
        merged.note(1, 1, "b")
        assert under_replicated_lsns(merged, 2) == []


class TestRepairLogCopy:
    def build_damaged_system(self, n_records=10):
        """Write records, then destroy one write-set server's disk."""
        log, stores = build_direct_log(m=3, n=2)
        lsns = [log.write(b"r%d" % i) for i in range(n_records)]
        dead = log.write_set[0]
        survivor = log.write_set[1]
        # the dead server's disk is gone: replace with an empty store
        replacement = LogServerStore(f"{dead}-replacement")
        survivors = {
            sid: store for sid, store in stores.items() if sid != dead
        }
        return log, stores, lsns, dead, survivor, survivors, replacement

    def test_repair_restores_n_copies(self):
        (log, stores, lsns, dead, survivor,
         survivors, replacement) = self.build_damaged_system()
        result = repair_onto(survivors, replacement, copies=2)
        assert result.records_copied > 0
        merged = MergedIntervalMap.merge([
            ServerIntervals(sid, stores[sid].client_state("c1").intervals())
            for sid in survivors
        ] + [ServerIntervals(replacement.server_id,
                             replacement.client_state("c1").intervals())])
        assert under_replicated_lsns(merged, 2) == []

    def test_repaired_records_readable_with_exact_data(self):
        (log, stores, lsns, dead, survivor,
         survivors, replacement) = self.build_damaged_system()
        repair_onto(survivors, replacement, 2)
        for i, lsn in enumerate(lsns):
            record = replacement.client_state("c1").lookup(lsn)
            if record is not None:
                assert record.data == b"r%d" % i

    def test_guards_and_epochs_preserved(self):
        log, stores = build_direct_log(m=3, n=2)
        log.write(b"one")
        log.crash()
        log.initialize()  # creates copies + guards at a higher epoch
        log.write(b"two")
        dead = log.write_set[0]
        survivors = {
            sid: store for sid, store in stores.items() if sid != dead
        }
        replacement = LogServerStore("fresh")
        repair_onto(survivors, replacement, 2)
        # whatever landed on the replacement preserved epoch + flags
        dead_records = stores[dead].client_state("c1").records
        for record in dead_records:
            copy = replacement.client_state("c1").lookup(record.lsn)
            if copy is not None and copy.epoch == record.epoch:
                assert copy.present == record.present
                assert copy.data == record.data

    def test_replay_order_satisfies_store_discipline(self):
        """Records spanning epochs replay without ProtocolError."""
        log, stores = build_direct_log(m=2, n=2)
        log.write(b"a")
        log.crash()
        log.initialize()
        log.write(b"b")
        log.crash()
        log.initialize()
        log.write(b"c")
        replacement = LogServerStore("fresh")
        result = repair_onto(stores, replacement, copies=3)
        replacement_state = replacement.client_state("c1")
        assert replacement_state.high_lsn is not None
        assert result.records_copied == len(replacement_state.records)

    def test_total_loss_raises(self):
        merged_stores = {"s0": LogServerStore("s0")}
        # s0 has nothing; pretend LSN 1 existed only on the dead server
        # by merging a fabricated interval list
        # write a record only to a store we then exclude
        ghost = LogServerStore("ghost")
        ghost.server_write_log("c1", 1, 1, True, b"lost")
        # survivors know nothing about LSN 1 -> nothing under-replicated
        result = repair_onto(merged_stores, LogServerStore("new"), copies=1)
        assert result.records_copied == 0

    def test_crashed_holder_invisible_to_repair(self):
        """A fully crashed holder's records are unknown to survivors."""
        log, stores = build_direct_log(m=3, n=2)
        log.write(b"x")
        dead = log.write_set[0]
        holder = log.write_set[1]
        survivors = {
            sid: store for sid, store in stores.items() if sid != dead
        }
        stores[holder].crash()
        result = repair_onto(survivors, LogServerStore("new"), 2)
        # the crashed holder contributed no interval list, so nothing
        # could be repaired — and nothing blew up
        assert result.records_copied == 0

    def test_holder_dying_mid_repair_raises(self):
        """The holder answers IntervalList, then dies before the read."""
        log, stores = build_direct_log(m=3, n=2)
        log.write(b"x")
        dead = log.write_set[0]
        holder = log.write_set[1]

        survivors = {
            sid: store for sid, store in stores.items() if sid != dead
        }
        target = LogServerStore("new")
        perform = store_performer({**survivors, "new": target}, "c1")

        def dies_before_read(call):
            if call.op == READ and call.server_id == holder:
                stores[holder].crash()
            return perform(call)

        with pytest.raises(NotEnoughServers):
            repair_onto(survivors, target, 2, perform=dies_before_read)
