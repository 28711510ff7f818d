"""A stored image that fails its CRC when *read*.

Reads come from ``log.dat`` now, so a byte that rots under a live store
is seen by the next read of that record.  That read — and only that
read — must fail with a typed storage error: over the wire an
``ErrorReply(ERR_STORAGE)`` on a connection that stays up, not a codec
exception that drops the client.  A reply that runs into the record
*after* its first ends before it: with 64 KiB replies, failing the
whole call would make a couple of hundred good records unreadable.
``crc_rejections`` counts every failed check, so a scan into the
record and the call that then starts at it bump it once each.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import StorageError
from repro.core.records import StoredRecord
from repro.net.codec import frame, read_message
from repro.net.messages import (
    ERR_STORAGE,
    MAX_RECORDS_ANY,
    ErrorReply,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    StatsCall,
)
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import _ENTRY, FileLogStore
from repro.rt.server import LogServerDaemon

RECORDS = tuple(StoredRecord(lsn, 1, data=bytes([lsn]) * 100)
                for lsn in range(1, 7))
ROTTEN = 3


def _rot(store: FileLogStore, client_id: str, lsn: int) -> None:
    """Flip one byte in the middle of the stored record's data."""
    handle = store.mem.find_client(client_id).lookup(lsn)
    fd = os.open(store.data_dir / "log.dat", os.O_RDWR)
    try:
        os.pwrite(fd, b"\xff",
                  handle.offset + _ENTRY.size + handle.length // 2)
    finally:
        os.close(fd)
    store._block = b""  # the store may hold the good bytes still


def _store_with_a_rotten_record(tmp_path) -> FileLogStore:
    store = FileLogStore(tmp_path / "s1", "s1")
    store.append_records("c", RECORDS, fsync=True)
    _rot(store, "c", ROTTEN)
    return store


def test_store_fails_only_the_rotten_record(tmp_path):
    store = _store_with_a_rotten_record(tmp_path)
    try:
        with pytest.raises(StorageError):
            store.read_record("c", ROTTEN)
        assert store.crc_rejections == 1
        for record in RECORDS:
            if record.lsn != ROTTEN:
                assert store.read_record("c", record.lsn) == record
        # a re-send of the record cannot be confirmed a duplicate: the
        # exact-bytes comparison reads the stored copy back, and that
        # is a storage error — not a silent drop, not a "conflict"
        with pytest.raises(StorageError):
            store.append_records("c", (RECORDS[ROTTEN - 1],), fsync=False)
        assert store.io_error is None  # reads never wedge appends
        store.append_records("c", (StoredRecord(7, 1, data=b"on"),),
                             fsync=True)
        assert store.read_record("c", 7).data == b"on"
    finally:
        store.close()


def test_daemon_answers_with_a_typed_error_and_keeps_the_connection(tmp_path):
    async def main():
        store = _store_with_a_rotten_record(tmp_path)
        daemon = LogServerDaemon(store)
        await daemon.start()
        reader, writer = await asyncio.open_connection(daemon.host,
                                                       daemon.port)

        async def call(msg):
            writer.write(frame(msg))
            return await asyncio.wait_for(read_message(reader), 5)

        try:
            reply = await call(ReadLogForwardCall("c", lsn=ROTTEN))
            assert isinstance(reply, ErrorReply), reply
            assert reply.code == ERR_STORAGE
            assert store.crc_rejections == 1
            # same connection, every other record
            assert await call(ReadLogForwardCall("c", lsn=ROTTEN + 1)) == \
                ReadLogReply("c", RECORDS[ROTTEN:])
            assert await call(ReadLogBackwardCall("c", lsn=ROTTEN - 1)) == \
                ReadLogReply("c", RECORDS[:ROTTEN - 1])
            # a reply that runs into the record ends before it, either
            # way and whatever the call's limit (each failed check is
            # counted); the call that starts at the record reports it
            for limit in (0, 5, MAX_RECORDS_ANY):
                assert await call(ReadLogForwardCall("c", 1, limit)) == \
                    ReadLogReply("c", RECORDS[:ROTTEN - 1])
                assert await call(ReadLogBackwardCall("c", 6, limit)) == \
                    ReadLogReply("c", RECORDS[ROTTEN:])
            assert store.crc_rejections == 1 + 6
            reply = await call(ReadLogForwardCall("c", ROTTEN, 1))
            assert isinstance(reply, ErrorReply) \
                and reply.code == ERR_STORAGE
            assert store.crc_rejections == 1 + 6 + 1
            stats = await call(StatsCall("c"))
            assert not isinstance(stats, ErrorReply)
        finally:
            writer.close()
            await daemon.close()

    asyncio.run(main())


def test_client_fails_over_for_the_rotten_record_only(tmp_path):
    """A scan is served by the first holder up to the rotten record, by
    the other holder from there, and the first holder keeps its
    connection and its place."""
    config = ReplicationConfig(total_servers=2, copies=2, delta=8)

    async def main():
        daemons = {}
        for sid in ("s1", "s2"):
            daemons[sid] = LogServerDaemon(FileLogStore(tmp_path / sid, sid))
            await daemons[sid].start()
        log = AsyncReplicatedLog(
            "c", {sid: (d.host, d.port) for sid, d in daemons.items()},
            config)
        try:
            await log.initialize()
            lsns = [await log.write(bytes([i]) * 100) for i in range(30)]
            await log.force()
            first, rotten = lsns[0], lsns[12]
            holder = log._merged.servers_for(rotten)[0]
            other = "s2" if holder == "s1" else "s1"
            _rot(daemons[holder].store, "c", rotten)

            got, lsn = [], first
            while lsn <= lsns[-1]:
                records = await log.read_forward(lsn)
                assert records and records[0].lsn == lsn
                got += records
                lsn = records[-1].lsn + 1
            assert [r.lsn for r in got] == lsns
            assert [r.data for r in got] == [bytes([i]) * 100
                                             for i in range(30)]
            assert (await log.read(rotten)).data == bytes([12]) * 100
            # the scan ran into it, the scan restarted at it, read() hit it
            assert daemons[holder].store.crc_rejections == 3
            assert daemons[other].store.crc_rejections == 0
            # nothing was torn down: the scan before and after the
            # record, and every other point read, stayed on the holder
            assert log._conns[holder].alive
            before = daemons[other].messages_handled
            assert (await log.read(first)).data == bytes([0]) * 100
            assert daemons[other].messages_handled == before
        finally:
            await log.close()
            for daemon in daemons.values():
                await daemon.close()

    asyncio.run(main())
