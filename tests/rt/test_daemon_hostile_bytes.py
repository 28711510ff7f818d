"""What a daemon does with bytes its codec rejects.

Undecodable input is the peer's fault, not a handler bug: the daemon
closes that one connection and logs one WARNING line naming itself and
the codec error — no traceback — and nothing the bytes claimed reaches
``log.dat``.  Every other connection is served as before.
"""

from __future__ import annotations

import asyncio
import logging
import struct
import zlib

import pytest

from repro.core.records import StoredRecord
from repro.net.codec import (
    FRAME_PREFIX_BYTES,
    MESSAGE_MAGIC,
    WIRE_VERSION,
    frame,
    read_message,
)
from repro.net.messages import (
    MESSAGE_HEADER_BYTES,
    ForceLogMsg,
    IntervalListCall,
    IntervalListReply,
    NewHighLSNMsg,
)
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon


def _flipped_magic() -> bytes:
    wire = bytearray(frame(IntervalListCall("c")))
    wire[FRAME_PREFIX_BYTES] ^= 0xFF
    return bytes(wire)


def _implausible_length() -> bytes:
    return struct.pack("!I", 3) + b"\x00" * 3


def _record_flags_0x03() -> bytes:
    """A ForceLog whose record has flags byte 0x03 under a valid CRC."""
    wire = bytearray(frame(ForceLogMsg(
        "c", 1, (StoredRecord(1, 1, data=b"payload"),))))
    at = FRAME_PREFIX_BYTES + MESSAGE_HEADER_BYTES
    wire[at + 8] = 0x03
    wire[at + 12:at + 16] = struct.pack("!I", zlib.crc32(
        bytes(wire[at + 16:]), zlib.crc32(bytes(wire[at:at + 12]))))
    return bytes(wire)


def _word_a_server_never_reads() -> bytes:
    """A NewHighLSN with a non-zero epoch word."""
    header = struct.pack("!HBB16sIII", MESSAGE_MAGIC, 4, WIRE_VERSION,
                         b"c", 7, 1, 0)
    return struct.pack("!I", len(header)) + header


@pytest.mark.parametrize("hostile", [
    _flipped_magic, _implausible_length, _record_flags_0x03,
    _word_a_server_never_reads,
], ids=lambda make: make.__name__.strip("_"))
def test_undecodable_bytes_cost_one_connection_and_one_warning(
        tmp_path, caplog, hostile):
    store = FileLogStore(tmp_path / "s1", "s1")

    async def main():
        daemon = LogServerDaemon(store)
        await daemon.start()
        try:
            reader, writer = await asyncio.open_connection(daemon.host,
                                                           daemon.port)
            writer.write(hostile())
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            # a fresh connection is served as if nothing happened
            reader, writer = await asyncio.open_connection(daemon.host,
                                                           daemon.port)
            writer.write(frame(IntervalListCall("c")))
            reply = await asyncio.wait_for(read_message(reader), 5)
            writer.close()
            return reply
        finally:
            await daemon.close()

    with caplog.at_level(logging.WARNING, logger="repro.rt.server"):
        reply = asyncio.run(main())
    assert reply == IntervalListReply("c", ())
    logged = [r for r in caplog.records if r.name == "repro.rt.server"]
    assert [r.levelname for r in logged] == ["WARNING"], logged
    assert logged[0].exc_info is None
    assert "s1" in logged[0].getMessage()
    # nothing the hostile frame carried was appended
    assert store.log_size_bytes == 0
    assert store.record_count() == 0


def test_frames_before_the_bad_one_are_still_answered(tmp_path, caplog):
    """The connection dies at the bad frame, not before it."""
    async def main():
        daemon = LogServerDaemon(FileLogStore(tmp_path / "s1", "s1"))
        await daemon.start()
        try:
            reader, writer = await asyncio.open_connection(daemon.host,
                                                           daemon.port)
            writer.write(frame(IntervalListCall("c")) + _flipped_magic())
            first = await asyncio.wait_for(read_message(reader), 5)
            rest = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            return first, rest
        finally:
            await daemon.close()

    with caplog.at_level(logging.WARNING, logger="repro.rt.server"):
        first, rest = asyncio.run(main())
    assert first == IntervalListReply("c", ())
    assert rest == b""
    assert [r.levelname for r in caplog.records
            if r.name == "repro.rt.server"] == ["WARNING"]


def test_a_reply_type_sent_to_the_daemon_is_not_a_codec_error(tmp_path,
                                                              caplog):
    """Decodable but unexpected: answered with an ErrorReply on a
    connection that stays up, and nothing is logged."""
    async def main():
        daemon = LogServerDaemon(FileLogStore(tmp_path / "s1", "s1"))
        await daemon.start()
        try:
            reader, writer = await asyncio.open_connection(daemon.host,
                                                           daemon.port)
            writer.write(frame(NewHighLSNMsg("c", 3)))
            odd = await asyncio.wait_for(read_message(reader), 5)
            writer.write(frame(IntervalListCall("c")))
            reply = await asyncio.wait_for(read_message(reader), 5)
            writer.close()
            return odd, reply
        finally:
            await daemon.close()

    with caplog.at_level(logging.WARNING, logger="repro.rt.server"):
        odd, reply = asyncio.run(main())
    assert type(odd).__name__ == "ErrorReply"
    assert reply == IntervalListReply("c", ())
    assert not [r for r in caplog.records if r.name == "repro.rt.server"]
