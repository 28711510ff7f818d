"""Unit tests for the one-fsync-per-group commit path.

The group-commit contract, checked here at the unit level (the
crash-level version is ``repro crashsweep``'s ``log.group-fsync``
cases):

* concurrent ForceLogs parked on one sync generation share a single
  fsync, and every parked client is acknowledged only *after* that
  fsync returns;
* a failing group fsync fans out a typed ErrorReply to every parked
  client — no ack is fabricated for anyone;
* ``--no-group-commit`` restores the inline append+fsync+ack path;
* the client's :class:`AdaptiveDelta` walks its force trigger down
  under light load and doubles it back under pressure, inside
  ``[min_delta, config.delta]``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import ProtocolError
from repro.core.records import StoredRecord
from repro.core.store import LogServerStore
from repro.net.codec import decode
from repro.net.messages import ERR_STORAGE, ErrorReply, ForceLogMsg, NewHighLSNMsg
from repro.rt.client import AdaptiveDelta, AsyncReplicatedLog
from repro.rt.faultfs import FaultInjector
from repro.rt.faultspec import FaultSpec
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon


# -- AdaptiveDelta -------------------------------------------------------


def test_adaptive_delta_starts_at_the_protocol_ceiling():
    ad = AdaptiveDelta(8)
    assert ad.effective == 8
    assert ad.min_delta == 1


def test_adaptive_delta_shrinks_under_sustained_light_load():
    ad = AdaptiveDelta(8, shrink_patience=4)
    for _ in range(100):
        ad.observe_force(0.0005, window_records=1, queue_depth=0)
    # One-record windows settle at 2: a window that reaches the trigger
    # itself counts as load, so the controller hovers just above it.
    assert ad.effective <= 2
    assert ad.shrinks >= 6


def test_adaptive_delta_needs_patience_to_shrink():
    ad = AdaptiveDelta(8, shrink_patience=4)
    for _ in range(3):
        ad.observe_force(0.0005, window_records=1, queue_depth=0)
    assert ad.effective == 8  # three light forces are not yet a trend


def test_adaptive_delta_grows_back_on_queue_depth():
    ad = AdaptiveDelta(8, shrink_patience=1)
    for _ in range(50):
        ad.observe_force(0.0005, window_records=0, queue_depth=0)
    assert ad.effective == 1
    ad.observe_force(0.0005, window_records=1, queue_depth=3)
    assert ad.effective == 2  # growth doubles
    ad.observe_force(0.0005, window_records=2, queue_depth=3)
    ad.observe_force(0.0005, window_records=4, queue_depth=3)
    assert ad.effective == 8  # back at the ceiling in a few forces
    ad.observe_force(0.0005, window_records=8, queue_depth=3)
    assert ad.effective == 8  # never above config.delta


def test_adaptive_delta_slow_acks_keep_the_window_wide():
    ad = AdaptiveDelta(8, target_latency_s=0.002, shrink_patience=2)
    for _ in range(50):
        ad.observe_force(0.010, window_records=1, queue_depth=0)
    assert ad.effective == 8  # latency EWMA says loaded: no shrink


# -- server_write_record's newly-stored contract -------------------------


def test_server_write_record_reports_newly_stored():
    store = LogServerStore("s1")
    rec = StoredRecord(lsn=1, epoch=1, present=True, data=b"a", kind="data")
    assert store.server_write_record("c", rec) is True
    # Identical retransmission: dropped, not an error.
    assert store.server_write_record("c", rec) is False
    # Late retransmission of a reclaimed record: dropped.
    rec2 = StoredRecord(lsn=2, epoch=1, present=True, data=b"b", kind="data")
    assert store.server_write_record("c", rec2) is True
    store.truncate_below("c", 2)
    assert store.server_write_record("c", rec) is False
    # Conflicting rewrite is still a protocol error.
    bad = StoredRecord(lsn=2, epoch=1, present=True, data=b"X", kind="data")
    with pytest.raises(ProtocolError):
        store.server_write_record("c", bad)


# -- the parked sync generation ------------------------------------------


class FakeWriter:
    """Collects the frames the daemon fans out to one connection."""

    def __init__(self):
        self.bufs: list[bytes] = []

    def is_closing(self) -> bool:
        return False

    def writelines(self, bufs) -> None:
        self.bufs.extend(bufs)

    def decoded(self):
        return [decode(buf[4:]) for buf in self.bufs]


def _force_msg(cid: str, lsns: range) -> ForceLogMsg:
    records = tuple(
        StoredRecord(lsn=lsn, epoch=1, present=True,
                     data=f"{cid}.{lsn}".encode(), kind="data")
        for lsn in lsns
    )
    return ForceLogMsg(cid, 1, records)


def test_parked_forces_share_one_fsync_and_ack_after(tmp_path):
    async def main():
        store = FileLogStore(os.path.join(tmp_path, "s1"), "s1")
        daemon = LogServerDaemon(store)
        writers = [FakeWriter() for _ in range(3)]
        before = store.fsyncs
        for i, writer in enumerate(writers):
            out = daemon._park_force(
                _force_msg(f"c{i}", range(1, 4)), writer)
            assert out == []  # the ack is never inline
        assert all(not w.bufs for w in writers)  # nothing acked yet
        while daemon.forces_acked < 3:
            await asyncio.sleep(0)
        assert store.fsyncs - before == 1  # one fsync covered all three
        assert daemon.forces_coalesced == 2
        assert daemon.group_syncs == 1
        for i, writer in enumerate(writers):
            assert writer.decoded() == [NewHighLSNMsg(f"c{i}", 3)]
        await daemon.close()
        # Durability behind the acks is real.
        reopened = FileLogStore(os.path.join(tmp_path, "s1"), "s1")
        for i in range(3):
            assert reopened.client_high_lsn(f"c{i}") == 3
        reopened.close()

    asyncio.run(main())


def test_failed_group_fsync_errors_every_parked_force(tmp_path):
    async def main():
        plan = FaultSpec(site="log.group-fsync", index=0, action="eio")
        store = FileLogStore(os.path.join(tmp_path, "s1"), "s1",
                             io=FaultInjector((plan,), mode="raise"))
        daemon = LogServerDaemon(store)
        writers = [FakeWriter() for _ in range(2)]
        for i, writer in enumerate(writers):
            daemon._park_force(_force_msg(f"c{i}", range(1, 3)), writer)
        while not all(w.bufs for w in writers):
            await asyncio.sleep(0)
        for writer in writers:
            (reply,) = writer.decoded()
            assert isinstance(reply, ErrorReply)
            assert reply.code == ERR_STORAGE
        assert daemon.forces_acked == 0  # no ack was fabricated
        assert daemon.group_syncs == 0
        await daemon.close()

    asyncio.run(main())


def test_concurrent_client_forces_coalesce_over_the_wire(tmp_path):
    """K real clients' forces share fsyncs through one live daemon."""
    config = ReplicationConfig(total_servers=1, copies=1, delta=8)

    async def one_client(addresses, cid):
        log = AsyncReplicatedLog(cid, addresses, config)
        await log.initialize()
        try:
            for i in range(10):
                await log.write(f"{cid}.{i}".encode())
                await log.force()
        finally:
            await log.close()

    async def main():
        store = FileLogStore(os.path.join(tmp_path, "s1"), "s1")
        daemon = LogServerDaemon(store)
        await daemon.start()
        addresses = {"s1": (daemon.host, daemon.port)}
        try:
            await asyncio.gather(*(
                one_client(addresses, f"c{i}") for i in range(4)))
        finally:
            await daemon.close()
        assert daemon.forces_acked == 40
        # Every shared generation is one fsync for the whole batch.
        assert daemon.forces_coalesced > 0
        assert store.fsyncs < daemon.forces_acked

    asyncio.run(main())


def test_no_group_commit_daemon_acks_inline(tmp_path):
    config = ReplicationConfig(total_servers=1, copies=1, delta=8)

    async def main():
        store = FileLogStore(os.path.join(tmp_path, "s1"), "s1")
        daemon = LogServerDaemon(store, group_commit=False)
        await daemon.start()
        try:
            log = AsyncReplicatedLog(
                "c1", {"s1": (daemon.host, daemon.port)}, config)
            await log.initialize()
            for i in range(5):
                await log.write(f"r{i}".encode())
                assert await log.force() > 0
            await log.close()
        finally:
            await daemon.close()
        assert daemon.forces_acked == 5
        assert daemon.forces_coalesced == 0
        assert daemon.group_syncs == 0

    asyncio.run(main())
