"""A stored image that fails its CRC when *read*.

Reads come from ``log.dat`` now, so a byte that rots under a live store
is seen by the next read of that record.  That read — and only that
read — must fail with a typed storage error: over the wire an
``ErrorReply(ERR_STORAGE)`` on a connection that stays up, not a codec
exception that drops the client.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.errors import StorageError
from repro.core.records import StoredRecord
from repro.net.codec import frame, read_message
from repro.net.messages import (
    ERR_STORAGE,
    ErrorReply,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    StatsCall,
)
from repro.rt.filestore import _ENTRY, FileLogStore
from repro.rt.server import LogServerDaemon

RECORDS = tuple(StoredRecord(lsn, 1, data=bytes([lsn]) * 100)
                for lsn in range(1, 7))
ROTTEN = 3


def _store_with_a_rotten_record(tmp_path) -> FileLogStore:
    store = FileLogStore(tmp_path / "s1", "s1")
    store.append_records("c", RECORDS, fsync=True)
    handle = store.mem.find_client("c").lookup(ROTTEN)
    fd = os.open(tmp_path / "s1" / "log.dat", os.O_RDWR)
    try:  # one byte in the middle of the record's data
        os.pwrite(fd, b"\xff",
                  handle.offset + _ENTRY.size + handle.length // 2)
    finally:
        os.close(fd)
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
            # a scan that runs into the record fails as a whole
            assert isinstance(await call(ReadLogForwardCall("c", lsn=1)),
                              ErrorReply)
            stats = await call(StatsCall("c"))
            assert not isinstance(stats, ErrorReply)
        finally:
            writer.close()
            await daemon.close()

    asyncio.run(main())
