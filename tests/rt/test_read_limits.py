"""ReadLog calls say how much they want — counted, not timed.

Over real daemons and sockets: a scan fills 64 KiB replies (so 2 000
records take nine calls, not four hundred), a point read and each of
recovery's fetches get one record, a hostile limit cannot buy a reply
past the cap, and both directions of old ↔ new interoperate: a call
that names no limit is answered exactly as before the field existed,
and a daemon that ignores the field still serves the new client.
"""

from __future__ import annotations

import asyncio
import struct

from repro.core.config import ReplicationConfig
from repro.core.records import StoredRecord
from repro.net.codec import MAX_FRAME_BYTES, frame, read_message
from repro.net.messages import (
    MAX_RECORDS_ANY,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
)
from repro.rt.client import AsyncReplicatedLog, ServerConnection
from repro.rt.filestore import FileLogStore
from repro.rt.server import (
    PACKET_REPLY_BYTES,
    READ_REPLY_CAP_BYTES,
    LogServerDaemon,
)

RECORD_BYTES = 256
IMAGE_BYTES = 16 + RECORD_BYTES
CONFIG = ReplicationConfig(total_servers=2, copies=2, delta=8)


def _data(i: int) -> bytes:
    return (b"%08d" % i) * (RECORD_BYTES // 8)


class OldDaemon(LogServerDaemon):
    """A daemon from before ``max_records``: field ``b`` is not read."""

    def _on_read(self, client_id, lsn, *, forward, max_records=0,
                 images=None):
        return super()._on_read(client_id, lsn, forward=forward,
                                images=images)


async def _cluster(tmp_path, daemon_cls=LogServerDaemon):
    daemons = {}
    for sid in ("s1", "s2"):
        daemons[sid] = daemon_cls(FileLogStore(tmp_path / sid, sid))
        await daemons[sid].start()
    return daemons


def _log(daemons) -> AsyncReplicatedLog:
    return AsyncReplicatedLog(
        "c", {sid: (d.host, d.port) for sid, d in daemons.items()}, CONFIG)


async def _preload(daemons, records: int) -> tuple[int, int]:
    log = _log(daemons)
    await log.initialize()
    lsns = []
    for i in range(records):
        lsns.append(await log.write(_data(i)))
        if (i + 1) % 64 == 0:
            await log.force()
    await log.force()
    await log.close()
    return lsns[0], lsns[-1]


async def _scan(log, first: int, last: int) -> int:
    """``read_forward`` from ``first`` to ``last``; every record
    checked; returns the number of calls it took."""
    calls, lsn = 0, first
    while lsn <= last:
        records = await log.read_forward(lsn)
        calls += 1
        assert records and records[0].lsn == lsn
        for record in records:
            # past ``last`` lie the guards a later initialize() wrote
            assert record.lsn > last \
                or record.data == _data(record.lsn - first)
        lsn = records[-1].lsn + 1
    return calls


def _spy_on_read_replies(monkeypatch) -> list[ReadLogReply]:
    """Every ReadLogReply a client connection hands back from now on."""
    replies: list[ReadLogReply] = []
    call = ServerConnection.call

    async def spying(self, msg):
        reply = await call(self, msg)
        if isinstance(reply, ReadLogReply):
            replies.append(reply)
        return reply

    monkeypatch.setattr(ServerConnection, "call", spying)
    return replies


def test_scan_fills_replies_and_point_reads_fetch_one(tmp_path, monkeypatch):
    async def main():
        daemons = await _cluster(tmp_path)
        try:
            first, last = await _preload(daemons, 2000)
            replies = _spy_on_read_replies(monkeypatch)
            log = _log(daemons)
            await log.initialize()
            # recovery fetched the last δ records to re-stamp them: one
            # record per call, not a packet's five
            assert 0 < len(replies) <= CONFIG.delta
            assert [len(r.records) for r in replies] == [1] * len(replies)

            del replies[:]
            handled = sum(d.messages_handled for d in daemons.values())
            calls = await _scan(log, first, last)
            assert calls == len(replies) == sum(
                d.messages_handled for d in daemons.values()) - handled
            per_reply = READ_REPLY_CAP_BYTES // IMAGE_BYTES  # 240
            assert calls == -(-2000 // per_reply) <= 12  # 9; was 400
            assert [len(r.records) for r in replies[:-1]] == \
                [per_reply] * (calls - 1)

            del replies[:]
            for lsn in (first, first + 1234, last):
                assert (await log.read(lsn)).data == _data(lsn - first)
            assert [len(r.records) for r in replies] == [1, 1, 1]
            await log.close()
        finally:
            for daemon in daemons.values():
                await daemon.close()

    asyncio.run(main())


def test_new_client_against_a_daemon_that_ignores_the_limit(tmp_path,
                                                             monkeypatch):
    async def main():
        daemons = await _cluster(tmp_path, OldDaemon)
        try:
            first, last = await _preload(daemons, 300)
            replies = _spy_on_read_replies(monkeypatch)
            log = _log(daemons)
            await log.initialize()
            per_packet = PACKET_REPLY_BYTES // IMAGE_BYTES  # 5
            del replies[:]
            calls = await _scan(log, first, last)
            assert calls == -(-300 // per_packet)
            for lsn in (first, first + 123):
                assert (await log.read(lsn)).data == _data(lsn - first)
            # it sent packets all along — to the point reads too — and
            # the client coped (the last scan reply runs into guards)
            del replies[calls - 1]
            assert [len(r.records) for r in replies] == \
                [per_packet] * (calls + 1)
            await log.close()
        finally:
            for daemon in daemons.values():
                await daemon.close()

    asyncio.run(main())


def test_raw_calls_old_bytes_old_reply_and_a_hostile_limit(tmp_path):
    records = tuple(StoredRecord(lsn, 1, data=_data(lsn))
                    for lsn in range(1, 1001))
    big = tuple(StoredRecord(lsn, 1, data=bytes([lsn]) * 60_000)
                for lsn in range(1, 4))

    async def main():
        store = FileLogStore(tmp_path / "s1", "s1")
        store.append_records("c", records, fsync=True)
        store.append_records("big", big, fsync=True)
        daemon = LogServerDaemon(store)
        await daemon.start()
        reader, writer = await asyncio.open_connection(daemon.host,
                                                       daemon.port)

        async def raw_call(payload: bytes) -> bytes:
            writer.write(struct.pack("!I", len(payload)) + payload)
            (size,) = struct.unpack("!I", await reader.readexactly(4))
            return await reader.readexactly(size)

        async def call(msg):
            writer.write(frame(msg))
            return await asyncio.wait_for(read_message(reader), 5)

        def old_call(mtype: int, lsn: int) -> bytes:
            # what a client from before the field put on the wire
            return struct.pack("!HBB16sIII", 0x4C47, mtype, 1, b"c", 0,
                               lsn, 0)

        try:
            # old call → the old reply, byte for byte: a packet's worth
            assert await raw_call(old_call(8, 500)) == \
                frame(ReadLogReply("c", records[499:504]))[4:]
            assert await raw_call(old_call(9, 500)) == \
                frame(ReadLogReply("c", records[495:500]))[4:]

            # the limit is the caller's, up to the cap
            for limit, want in ((1, 1), (2, 2), (7, 7), (240, 240),
                                (241, 240), (MAX_RECORDS_ANY, 240)):
                reply = await call(ReadLogForwardCall("c", 500, limit))
                assert reply == ReadLogReply(
                    "c", records[499:499 + want]), limit
                reply = await call(ReadLogBackwardCall("c", 500, limit))
                assert reply == ReadLogReply(
                    "c", records[500 - want:500]), limit

            # a hostile limit buys no more than the cap; the first
            # record always goes, so cap + one record bounds any reply
            raw = await raw_call(frame(
                ReadLogForwardCall("c", 1, MAX_RECORDS_ANY))[4:])
            assert len(raw) <= 32 + READ_REPLY_CAP_BYTES
            reply = await call(ReadLogForwardCall("big", 1, MAX_RECORDS_ANY))
            assert reply == ReadLogReply("big", big[:1])  # 2 × 60 016 > cap
            raw = await raw_call(frame(
                ReadLogBackwardCall("big", 3, MAX_RECORDS_ANY))[4:])
            assert len(raw) == 32 + 60_016
            assert len(raw) <= 32 + READ_REPLY_CAP_BYTES + 16 + 65_535 \
                < MAX_FRAME_BYTES // 16
        finally:
            writer.close()
            await daemon.close()

    asyncio.run(main())
