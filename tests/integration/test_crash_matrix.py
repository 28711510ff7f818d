"""Systematic failure injection: crash at every interesting point.

The matrix walks the direct algorithm through a scripted life —
writes, client crashes, server outages, partial writes — verifying
after every step that the two core guarantees hold:

* **durability**: every acknowledged write stays readable with its
  exact payload;
* **consistency**: a partially written record reports one fate,
  forever.
"""

import itertools

import pytest

from repro.core.errors import LSNNotWritten, NotEnoughServers, RecordNotPresent

from ..conftest import build_direct_log


def audit(log, acknowledged):
    for lsn, data in acknowledged.items():
        assert log.read(lsn).data == data


class TestCrashPoints:
    @pytest.mark.parametrize("crash_after", range(6))
    def test_client_crash_after_k_writes(self, crash_after):
        log, _ = build_direct_log(m=3, n=2)
        acknowledged = {}
        for i in range(6):
            lsn = log.write(b"w%d" % i)
            acknowledged[lsn] = b"w%d" % i
            if i == crash_after:
                log.crash()
                log.initialize()
        audit(log, acknowledged)

    @pytest.mark.parametrize("down_server", range(3))
    def test_single_server_outage_at_each_position(self, down_server):
        log, stores = build_direct_log(m=3, n=2)
        acknowledged = {}
        for i in range(3):
            lsn = log.write(b"a%d" % i)
            acknowledged[lsn] = b"a%d" % i
        list(stores.values())[down_server].crash()
        for i in range(3):
            lsn = log.write(b"b%d" % i)
            acknowledged[lsn] = b"b%d" % i
        audit(log, acknowledged)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (5, 3), (4, 3)])
    def test_configurations(self, m, n):
        log, stores = build_direct_log(m=m, n=n)
        acknowledged = {}
        for i in range(4):
            lsn = log.write(b"x%d" % i)
            acknowledged[lsn] = b"x%d" % i
        log.crash()
        log.initialize()
        audit(log, acknowledged)

    @pytest.mark.parametrize("delta", [1, 2, 4, 8])
    def test_delta_values(self, delta):
        log, _ = build_direct_log(m=3, n=2, delta=delta)
        acknowledged = {}
        for i in range(10):
            lsn = log.write(b"d%d" % i)
            acknowledged[lsn] = b"d%d" % i
        log.crash()
        log.initialize()
        audit(log, acknowledged)
        # guards: δ not-present records at the tail
        end = log.end_of_log()
        for g in range(end - delta + 1, end + 1):
            with pytest.raises(RecordNotPresent):
                log.read(g)


class TestPartialWriteFates:
    def simulate_partial(self, holders, m=3, n=2):
        """Write a record to only ``holders`` of the write set."""
        log, stores = build_direct_log(m=m, n=n)
        base = log.write(b"base")
        partial_lsn = base + 1
        for sid in list(log.write_set)[:holders]:
            stores[sid].server_write_log(
                "c1", partial_lsn, log.current_epoch, True, b"partial")
        return log, stores, base, partial_lsn

    @pytest.mark.parametrize("holders", [0, 1])
    def test_consistent_fate_across_restarts(self, holders):
        log, stores, base, partial_lsn = self.simulate_partial(holders)
        fates = []
        for _ in range(3):
            log.crash()
            log.initialize()
            try:
                fates.append(log.read(partial_lsn).data)
            except (RecordNotPresent, LSNNotWritten):
                fates.append(None)
        assert len(set(fates)) == 1
        assert log.read(base).data == b"base"

    def test_partial_write_never_corrupts_neighbours(self):
        log, stores, base, partial_lsn = self.simulate_partial(1)
        log.crash()
        log.initialize()
        after = log.write(b"after")
        assert after > partial_lsn
        assert log.read(base).data == b"base"
        assert log.read(after).data == b"after"


class TestRepeatedFailures:
    def test_rolling_server_outages(self):
        """Servers fail round-robin; the log never loses data."""
        log, stores = build_direct_log(m=4, n=2)
        store_list = list(stores.values())
        acknowledged = {}
        counter = itertools.count()
        for round_no in range(8):
            victim = store_list[round_no % 4]
            victim.crash()
            for _ in range(2):
                i = next(counter)
                try:
                    lsn = log.write(b"r%d" % i)
                except NotEnoughServers:
                    victim.restart()
                    log.initialize()
                    lsn = log.write(b"r%d" % i)
                acknowledged[lsn] = b"r%d" % i
            victim.restart()
        audit(log, acknowledged)

    def test_crash_storm_then_full_audit(self):
        log, stores = build_direct_log(m=3, n=2)
        acknowledged = {}
        for i in range(5):
            lsn = log.write(b"s%d" % i)
            acknowledged[lsn] = b"s%d" % i
            log.crash()
            log.initialize()
        # five crash/recover cycles: everything still there
        audit(log, acknowledged)
        # interval lists stay bounded: recovery adds at most a couple
        # of intervals per epoch
        for store in stores.values():
            assert len(store.client_state("c1").intervals()) <= 12

    def test_epoch_monotone_through_storm(self):
        log, _ = build_direct_log(m=3, n=2)
        epochs = [log.current_epoch]
        for _ in range(5):
            log.crash()
            log.initialize()
            epochs.append(log.current_epoch)
        assert epochs == sorted(set(epochs))
