"""Unit tests for the one-fsync-per-group commit path.

The group-commit contract, checked here at the unit level (the
crash-level version is ``repro crashsweep``'s ``log.group-fsync``
cases):

* concurrent ForceLogs parked on one sync generation share a single
  fsync, and every parked client is acknowledged only *after* that
  fsync returns;
* a failing group fsync fans out a typed ErrorReply to every parked
  client — no ack is fabricated for anyone;
* parking is the only way a ForceLog reaches the store;
* the client forces implicitly at exactly ``config.delta``
  unacknowledged records.
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
from repro.net.messages import (
    ERR_PROTOCOL,
    ERR_STORAGE,
    ErrorReply,
    ForceLogMsg,
    NewHighLSNMsg,
)
from repro.rt.client import AsyncReplicatedLog
from repro.rt.faultfs import FaultInjector
from repro.rt.faultspec import FaultSpec
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon


# -- the client's δ trigger ----------------------------------------------


def test_twenty_writes_at_delta_eight_make_two_forces_of_eight(tmp_path):
    """δ is δ: with no explicit force the window is forced exactly when
    it holds ``config.delta`` records — counts, not timings."""
    config = ReplicationConfig(total_servers=1, copies=1, delta=8)

    async def main():
        store = FileLogStore(os.path.join(tmp_path, "s1"), "s1")
        daemon = LogServerDaemon(store)
        await daemon.start()
        try:
            log = AsyncReplicatedLog(
                "c1", {"s1": (daemon.host, daemon.port)}, config)
            await log.initialize()
            appended = store.records_appended
            for i in range(20):
                await log.write(f"r{i}".encode())
            assert log.forces_performed == 2
            assert daemon.forces_acked == 2
            # no WriteLog streamed these small records ahead of their
            # force, so each ForceLog carried one full window
            assert store.records_appended - appended == 2 * 8
            assert len(log._window) == 4
            await log.force()
            assert (log.forces_performed, daemon.forces_acked) == (3, 3)
            assert store.records_appended - appended == 20
            await log.close()
        finally:
            await daemon.close()

    asyncio.run(main())


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
        # fsyncs completed when each force was parked, and when acked
        parked: dict[tuple[str, int], int] = {}
        acked: dict[tuple[str, int], int] = {}
        park, write_frames = daemon._park_force, daemon._write_frames_safely

        def park_force(msg, writer, images=None):
            out = park(msg, writer, images)
            parked[msg.client_id, msg.high_lsn] = store.fsyncs
            return out

        def write_frames_safely(writer, bufs):
            for buf in bufs:
                reply = decode(buf[4:])
                if isinstance(reply, NewHighLSNMsg):
                    acked[reply.client_id, reply.new_high_lsn] = store.fsyncs
            write_frames(writer, bufs)

        daemon._park_force = park_force
        daemon._write_frames_safely = write_frames_safely
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
        # No ack precedes its covering fsync: one returned between the
        # append that parked the force and the ack that answered it.
        assert len(acked) == 40
        for force, fsyncs_when_acked in acked.items():
            assert fsyncs_when_acked > parked[force]

    asyncio.run(main())


def test_a_force_reaches_the_store_only_by_parking(tmp_path):
    """``_dispatch`` serves every message but a ForceLog: handing it one
    appends nothing and acknowledges nothing."""
    store = FileLogStore(os.path.join(tmp_path, "s1"), "s1")
    daemon = LogServerDaemon(store)
    (reply,) = daemon._dispatch(_force_msg("c0", range(1, 4)))
    assert isinstance(reply, ErrorReply) and reply.code == ERR_PROTOCOL
    assert store.records_appended == 0
    assert daemon.forces_acked == 0
    store.close()
