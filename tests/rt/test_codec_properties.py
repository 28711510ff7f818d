"""Property tests for the binary wire codec.

Two invariants for every message type:

1. ``decode(encode(msg)) == msg`` — lossless round trip;
2. ``len(encode(msg)) == msg.wire_size`` — the bytes on the socket are
   exactly the bytes the Section 4.1 capacity analysis charges
   (``MESSAGE_HEADER_BYTES`` + ``RECORD_HEADER_BYTES``-per-record +
   data, or 12 bytes per interval).
"""

from __future__ import annotations

import asyncio
import hashlib
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval
from repro.core.records import StoredRecord
from repro.net import codec
from repro.net.codec import (
    KIND_CODES,
    MAX_CLIENT_ID_BYTES,
    MAX_RECORD_DATA,
    MESSAGE_MAGIC,
    SOCKET_READ_BYTES,
    WIRE_VERSION,
    FrameReader,
    FrameScanner,
    WireCodecError,
    bound_socket_reads,
    decode,
    decode_stored_record,
    encode,
    encode_stored_record,
    frame,
    frame_iov,
    frame_new_high_lsn,
)
from repro.net.messages import (
    ERR_FENCED,
    MESSAGE_HEADER_BYTES,
    RECORD_HEADER_BYTES,
    AckReply,
    CopyLogCall,
    ErrorReply,
    FenceLogCall,
    FenceReply,
    ForceLogMsg,
    GeneratorReadCall,
    GeneratorReadReply,
    GeneratorWriteCall,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    PingMsg,
    PongMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    STATS_COUNTERS,
    StatsCall,
    StatsReply,
    TruncateLogCall,
    TruncateReply,
    WriteLogMsg,
)

# -- strategies -----------------------------------------------------------

client_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=MAX_CLIENT_ID_BYTES,
)
lsns = st.integers(min_value=1, max_value=2**32 - 1)
epochs = st.integers(min_value=1, max_value=2**32 - 1)
kinds = st.sampled_from(sorted(KIND_CODES))
#: a ReadLog call's ``max_records``: none, the edges, anything between
record_limits = st.one_of(st.sampled_from([0, 1, 2**32 - 1]),
                          st.integers(min_value=0, max_value=2**32 - 1))
payloads = st.binary(max_size=300)


@st.composite
def record_batches(draw, epoch=None, min_size=1):
    """Consecutive-LSN records sharing one epoch (a legal batch)."""
    ep = draw(epochs) if epoch is None else epoch
    start = draw(st.integers(min_value=1, max_value=2**31))
    count = draw(st.integers(min_value=min_size, max_value=6))
    records = []
    for i in range(count):
        present = draw(st.booleans())
        records.append(StoredRecord(
            lsn=start + i, epoch=ep, present=present,
            data=draw(payloads) if present else b"",
            kind=draw(kinds),
        ))
    return ep, tuple(records)


@st.composite
def interval_tuples(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    out = []
    for _ in range(count):
        lo = draw(lsns)
        hi = draw(st.integers(min_value=lo, max_value=2**32 - 1))
        out.append(Interval(epoch=draw(epochs), lo=lo, hi=hi))
    return tuple(out)


@st.composite
def messages(draw):
    cid = draw(client_ids)
    which = draw(st.integers(min_value=0, max_value=21))
    if which == 14:
        return PingMsg(cid, token=draw(st.integers(0, 2**32 - 1)))
    if which == 15:
        return PongMsg(cid, token=draw(st.integers(0, 2**32 - 1)))
    if which == 16:
        return TruncateLogCall(cid, low_water_lsn=draw(lsns),
                               epoch=draw(st.integers(0, 2**32 - 1)))
    if which == 20:
        return FenceLogCall(cid, epoch=draw(epochs))
    if which == 21:
        return FenceReply(cid, epoch=draw(st.integers(0, 2**32 - 1)))
    if which == 17:
        return TruncateReply(cid, low_water_lsn=draw(lsns),
                             records_dropped=draw(st.integers(0, 2**32 - 1)))
    if which == 18:
        return StatsCall(cid)
    if which == 19:
        counters = draw(st.lists(st.integers(0, 2**64 - 1),
                                 min_size=0, max_size=len(STATS_COUNTERS)))
        return StatsReply(cid, tuple(counters))
    if which == 0:
        ep, recs = draw(record_batches())
        return WriteLogMsg(cid, ep, recs)
    if which == 1:
        ep, recs = draw(record_batches())
        return ForceLogMsg(cid, ep, recs)
    if which == 2:
        return NewIntervalMsg(cid, draw(epochs), starting_lsn=draw(lsns))
    if which == 3:
        return NewHighLSNMsg(cid, new_high_lsn=draw(lsns))
    if which == 4:
        lo = draw(lsns)
        return MissingIntervalMsg(
            cid, lo=lo, hi=draw(st.integers(min_value=lo,
                                            max_value=2**32 - 1)))
    if which == 5:
        return IntervalListCall(cid)
    if which == 6:
        return IntervalListReply(cid, draw(interval_tuples()))
    if which == 7:
        return ReadLogForwardCall(cid, lsn=draw(lsns),
                                  max_records=draw(record_limits))
    if which == 8:
        return ReadLogBackwardCall(cid, lsn=draw(lsns),
                                   max_records=draw(record_limits))
    if which == 9:
        ep, recs = draw(record_batches(min_size=0))
        return ReadLogReply(cid, recs)
    if which == 10:
        ep, recs = draw(record_batches())
        return CopyLogCall(cid, ep, recs)
    if which == 11:
        return InstallCopiesCall(cid, draw(epochs))
    if which == 12:
        return AckReply(cid, ok=draw(st.booleans()))
    return ErrorReply(cid, draw(st.text(max_size=80)))


@st.composite
def generator_messages(draw):
    cid = draw(client_ids)
    which = draw(st.integers(min_value=0, max_value=2))
    value = draw(st.integers(min_value=0, max_value=2**64 - 1))
    if which == 0:
        return GeneratorReadCall(cid)
    if which == 1:
        return GeneratorReadReply(cid, value=value)
    return GeneratorWriteCall(cid, value=value)


# -- the two invariants ---------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(messages())
def test_round_trip(msg):
    assert decode(encode(msg)) == msg


@settings(max_examples=300, deadline=None)
@given(messages())
def test_encoded_length_is_wire_size(msg):
    encoded = encode(msg)
    assert len(encoded) == msg.wire_size
    assert msg.wire_size >= MESSAGE_HEADER_BYTES


@settings(max_examples=100, deadline=None)
@given(generator_messages())
def test_generator_messages_round_trip(msg):
    assert decode(encode(msg)) == msg
    assert len(encode(msg)) == msg.wire_size


@settings(max_examples=200, deadline=None)
@given(record_batches())
def test_stored_record_round_trip(batch):
    _, records = batch
    for record in records:
        buf = encode_stored_record(record)
        assert len(buf) == RECORD_HEADER_BYTES + len(record.data)
        decoded, consumed = decode_stored_record(buf, 0)
        assert decoded == record
        assert consumed == len(buf)


@settings(max_examples=200, deadline=None)
@given(messages())
def test_frame_is_length_prefixed(msg):
    buf = frame(msg)
    (length,) = struct.unpack_from("!I", buf, 0)
    assert length == len(buf) - 4 == msg.wire_size


def test_wire_size_constants_match_issue_accounting():
    """The codec's fixed costs are the message-accounting constants."""
    assert MESSAGE_HEADER_BYTES == 32
    assert RECORD_HEADER_BYTES == 16
    rec = StoredRecord(lsn=1, epoch=1, data=b"x" * 100)
    msg = WriteLogMsg("c", 1, (rec,))
    assert len(encode(msg)) == 32 + 16 + 100
    reply = IntervalListReply("c", (Interval(1, 1, 9),))
    assert len(encode(reply)) == 32 + 12


@pytest.mark.parametrize("cls, mtype", [(ReadLogForwardCall, 8),
                                        (ReadLogBackwardCall, 9)])
def test_read_call_limit_rides_in_header_field_b(cls, mtype):
    """``max_records`` took the header's unused last word: a call
    without one is, byte for byte, what was sent before the field
    existed, and the frame is no longer with one."""
    def golden(b):
        return struct.pack("!HBB16sIII", 0x4C47, mtype, 1, b"c7", 0, 41, b)

    assert encode(cls("c7", lsn=41)) == golden(0)
    assert encode(cls("c7", 41, max_records=0)) == golden(0)
    assert encode(cls("c7", 41, max_records=1)) == golden(1)
    assert encode(cls("c7", 41, 2**32 - 1)) == golden(2**32 - 1)
    assert decode(golden(0)) == cls("c7", 41)
    assert decode(golden(240)).max_records == 240
    assert cls("c7", 41, 240).wire_size == MESSAGE_HEADER_BYTES
    with pytest.raises(WireCodecError):
        encode(cls("c7", 41, 2**32))


#: one fixed instance of every message type, in type-code order.
ONE_OF_EACH = (
    WriteLogMsg("c1", 3, (StoredRecord(7, 3, data=b"seven"),
                          StoredRecord(8, 3, present=False, kind="guard"))),
    ForceLogMsg("c1", 3, (StoredRecord(9, 3, data=b"nine", kind="commit"),)),
    NewIntervalMsg("c1", 3, starting_lsn=12),
    NewHighLSNMsg("s1", new_high_lsn=9),
    MissingIntervalMsg("c1", lo=4, hi=6),
    IntervalListCall("c1"),
    IntervalListReply("c1", (Interval(1, 1, 5), Interval(3, 7, 9))),
    ReadLogForwardCall("c1", lsn=5, max_records=64),
    ReadLogBackwardCall("c1", lsn=9, max_records=1),
    ReadLogReply("c1", (StoredRecord(5, 1, data=b"five"),)),
    CopyLogCall("c1", 4, (StoredRecord(9, 4, data=b"copy"),)),
    InstallCopiesCall("c1", 4),
    AckReply("c1", ok=True),
    ErrorReply("c1", "fenced at 5", code=ERR_FENCED),
    GeneratorReadCall(""),
    GeneratorReadReply("", value=2**40 + 17),
    GeneratorWriteCall("", value=18),
    PingMsg("c1", token=77),
    PongMsg("c1", token=77),
    TruncateLogCall("c1", low_water_lsn=3, epoch=4),
    TruncateReply("c1", low_water_lsn=3, records_dropped=2),
    StatsCall("c1"),
    StatsReply("c1", (1, 2, 2**40)),
    FenceLogCall("c1", epoch=5),
    FenceReply("c1", epoch=5),
)
#: SHA-256 of their frames end to end, generated by the codec that had
#: one hand-written encode and decode branch per type: a table row that
#: moves a byte fails here.
WIRE_GOLDEN = \
    "f4891885d86c71285fa21a6536da159f775d20074b59aefd4efb60b242b09d7a"


def test_one_frame_of_every_type_is_the_wire_golden():
    wire = b"".join(frame(msg) for msg in ONE_OF_EACH)
    assert len(wire) == 1056
    assert hashlib.sha256(wire).hexdigest() == WIRE_GOLDEN
    assert [f.kind for f in FrameScanner().feed(wire)] == \
        [row.name for row in codec._WIRE]
    assert [type(msg) for msg in ONE_OF_EACH] == \
        [row.cls for row in codec._WIRE]
    assert [decode(f.data[4:]) for f in FrameScanner().feed(wire)] == \
        list(ONE_OF_EACH)


# -- corruption and limits ------------------------------------------------


def test_decode_rejects_bad_magic():
    buf = bytearray(encode(IntervalListCall("c")))
    buf[0] ^= 0xFF
    with pytest.raises(WireCodecError):
        decode(bytes(buf))


def test_decode_rejects_truncated_header():
    buf = encode(IntervalListCall("c"))
    with pytest.raises(WireCodecError):
        decode(buf[: MESSAGE_HEADER_BYTES - 1])


def test_decode_rejects_corrupt_record_data():
    msg = WriteLogMsg("c", 1, (StoredRecord(lsn=1, epoch=1, data=b"abcd"),))
    buf = bytearray(encode(msg))
    buf[-1] ^= 0xFF  # flip a data byte: CRC must catch it
    with pytest.raises(WireCodecError):
        decode(bytes(buf))


def test_encode_rejects_oversized_client_id():
    with pytest.raises(WireCodecError):
        encode(IntervalListCall("x" * (MAX_CLIENT_ID_BYTES + 1)))


def test_encode_rejects_oversized_record_data():
    rec = StoredRecord(lsn=1, epoch=1, data=b"x" * (MAX_RECORD_DATA + 1))
    with pytest.raises(WireCodecError):
        encode(WriteLogMsg("c", 1, (rec,)))


def test_encode_rejects_unknown_kind():
    rec = StoredRecord(lsn=1, epoch=1, data=b"x", kind="mystery")
    with pytest.raises(WireCodecError):
        encode(WriteLogMsg("c", 1, (rec,)))


def test_error_reply_wire_size_counts_reason_bytes():
    msg = ErrorReply("c", "déjà vu")
    assert msg.wire_size == MESSAGE_HEADER_BYTES + len("déjà vu".encode())
    assert len(encode(msg)) == msg.wire_size


def test_error_reply_code_round_trips():
    from repro.net.messages import ERR_STORAGE

    msg = ErrorReply("c", "disk full", code=ERR_STORAGE)
    decoded = decode(encode(msg))
    assert decoded == msg
    assert decoded.code == ERR_STORAGE


def test_stats_reply_names_match_wire_order():
    counters = tuple(range(len(STATS_COUNTERS)))
    msg = StatsReply("c", counters)
    decoded = decode(encode(msg))
    assert decoded.as_dict() == dict(zip(STATS_COUNTERS, counters))
    assert msg.wire_size == MESSAGE_HEADER_BYTES + 8 * len(counters)


# -- zero-copy encode/frame variants --------------------------------------
#
# The scatter-gather sender (``frame_iov``) and the fused group-commit
# ack (``frame_new_high_lsn``) must be *byte identical* to the
# reference ``encode``/``frame`` for every message kind — they are
# transport optimizations, never wire-format changes.


@settings(max_examples=300, deadline=None)
@given(st.one_of(messages(), generator_messages()))
def test_frame_iov_matches_frame(msg):
    assert b"".join(frame_iov(msg)) == frame(msg)


@settings(max_examples=200, deadline=None)
@given(record_batches(), st.booleans())
def test_frame_iov_accepts_preencoded_record_images(batch, force):
    ep, records = batch
    cls = ForceLogMsg if force else WriteLogMsg
    msg = cls("c", ep, records)
    images = [encode_stored_record(r) for r in records]
    assert b"".join(frame_iov(msg, images)) == frame(msg)


@settings(max_examples=200, deadline=None)
@given(client_ids, lsns)
def test_frame_new_high_lsn_matches_generic_frame(cid, lsn):
    assert frame_new_high_lsn(cid, lsn) == frame(NewHighLSNMsg(cid, lsn))


@settings(max_examples=200, deadline=None)
@given(messages())
def test_decode_accepts_memoryview(msg):
    buf = encode(msg)
    with memoryview(buf) as view:
        assert decode(view) == msg


@settings(max_examples=200, deadline=None)
@given(record_batches(), st.booleans())
def test_decode_collects_raw_record_images(batch, force):
    """``record_images`` gets each record's exact on-disk wire image."""
    ep, records = batch
    cls = ForceLogMsg if force else WriteLogMsg
    msg = cls("c", ep, records)
    images: list[bytes] = []
    assert decode(encode(msg), images) == msg
    assert images == [encode_stored_record(r) for r in records]


# -- FrameReader: persistent receive buffer -------------------------------


def _stream_reader(data: bytes, chunks: list[int]):
    """A fed-and-closed StreamReader delivering ``data`` in pieces."""
    reader = asyncio.StreamReader()
    pos = 0
    for size in chunks:
        reader.feed_data(data[pos:pos + size])
        pos += size
    reader.feed_data(data[pos:])
    reader.feed_eof()
    return reader


@settings(max_examples=150, deadline=None)
@given(st.lists(messages(), min_size=1, max_size=6), st.data())
def test_frame_reader_round_trips_chunked_stream(msgs, data):
    stream = b"".join(frame(m) for m in msgs)
    cuts = data.draw(st.lists(
        st.integers(min_value=0, max_value=max(len(stream) - 1, 0)),
        max_size=5))

    async def main():
        chunks = []
        pos = 0
        for cut in sorted(cuts):
            chunks.append(cut - pos)
            pos = cut
        reader = FrameReader(_stream_reader(stream, chunks))
        out = []
        while True:
            msg = await reader.read_message()
            if msg is None:
                break
            out.append(msg)
        reader.close()
        return out

    assert asyncio.run(main()) == msgs


def test_frame_reader_rejects_mid_frame_eof():
    msg = WriteLogMsg("c", 1, (StoredRecord(lsn=1, epoch=1, data=b"abc"),))
    stream = frame(msg)[:-1]

    async def main():
        reader = FrameReader(_stream_reader(stream, []))
        with pytest.raises(WireCodecError):
            await reader.read_message()
        reader.close()

    asyncio.run(main())


def test_frame_reader_decodes_through_the_module_decode(monkeypatch):
    """``FrameReader`` looks ``decode`` up in the codec module on every
    frame: a tracer that wraps ``repro.net.codec.decode`` sees each one
    the daemon decodes."""
    calls = []
    original = codec.decode

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(codec, "decode", counting)
    msgs = ONE_OF_EACH[:3]

    async def main():
        reader = FrameReader(_stream_reader(
            b"".join(frame(m) for m in msgs), [5, 40]))
        out = [await reader.read_message() for _ in msgs]
        assert await reader.read_message() is None
        return out

    assert asyncio.run(main()) == list(msgs)
    assert len(calls) == 3


def test_frame_reader_stops_at_a_bad_magic_without_buffering_the_frame():
    """The boundary check the scanner makes: a frame whose magic is
    wrong fails once its first six bytes are in, though its length
    prefix still promises a megabyte."""
    bad = struct.pack("!IH", 1 << 20, MESSAGE_MAGIC ^ 0xFFFF)

    async def main():
        source = asyncio.StreamReader()
        source.feed_data(bad)  # no EOF: the reader must not wait for more
        with pytest.raises(WireCodecError, match="magic"):
            await asyncio.wait_for(FrameReader(source).read_message(), 5)

    asyncio.run(main())


def test_bound_socket_reads_only_lowers_an_existing_read_size():
    class Transport:
        max_size = 256 * 1024

    class Small:
        max_size = 4096

    big, small, bare = Transport(), Small(), object()
    for transport in (big, small, bare):
        bound_socket_reads(transport)
    assert big.max_size == SOCKET_READ_BYTES < 128 * 1024 - 64
    assert small.max_size == 4096
    assert not hasattr(bare, "max_size")


def test_stream_transports_have_the_read_size_it_bounds():
    """The attribute is asyncio's own, undocumented: if a Python
    release renames it the bound silently stops applying, and this is
    where that shows."""
    async def main():
        seen = []

        async def handle(reader, writer):
            bound_socket_reads(writer.transport)
            seen.append(writer.transport.max_size)
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        assert writer.transport.max_size > SOCKET_READ_BYTES
        bound_socket_reads(writer.transport)
        seen.append(writer.transport.max_size)
        await reader.read()
        writer.close()
        server.close()
        await server.wait_closed()
        return seen

    assert asyncio.run(main()) == [SOCKET_READ_BYTES] * 2


# -- hostile bytes ---------------------------------------------------------
#
# Bytes off the wire are outside input: whatever arrives — noise, a
# valid stream damaged in flight, a well-framed body that lies about
# its contents — the decoder and both frame readers answer with a
# decoded message or ``WireCodecError``, never any other exception.


def _framed(payload: bytes) -> bytes:
    return struct.pack("!I", len(payload)) + payload


#: a body of noise behind a header whose magic and version are right,
#: so the decoder gets as far as the type's own parsing.
_plausible = st.tuples(
    st.integers(0, 40), st.binary(min_size=16, max_size=16),
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1), st.binary(max_size=120),
).map(lambda t: struct.pack("!HBB16sIII", MESSAGE_MAGIC, t[0],
                            WIRE_VERSION, *t[1:5]) + t[5])

_damage = st.lists(st.tuples(
    st.sampled_from(["set", "insert", "delete", "cut"]),
    st.integers(0, 2**16), st.integers(0, 255)), max_size=4)


def _damaged(data: bytes, damage) -> bytes:
    out = bytearray(data)
    for how, where, value in damage:
        if not out:
            break
        where %= len(out)
        if how == "set":
            out[where] = value
        elif how == "insert":
            out.insert(where, value)
        elif how == "delete":
            del out[where]
        else:
            del out[where:]
    return bytes(out)


_hostile_payloads = st.one_of(
    st.binary(max_size=200), _plausible,
    st.tuples(st.one_of(messages(), generator_messages()).map(encode),
              _damage).map(lambda t: _damaged(*t)))


@settings(max_examples=500, deadline=None)
@given(_hostile_payloads)
def test_decode_of_hostile_bytes_is_a_message_or_a_codec_error(payload):
    images: list[bytes] = []
    try:
        decode(payload, images)
    except WireCodecError:
        pass


@settings(max_examples=500, deadline=None)
@given(_hostile_payloads)
def test_decode_accepts_only_what_encode_produces(payload):
    """Whatever ``decode`` accepts re-encodes to the very bytes it
    was given: no header word, body byte or record flag is ignored.  A
    daemon appends received record images verbatim, so this is what
    keeps bytes ``encode`` never writes off the disk."""
    try:
        msg = decode(payload)
    except WireCodecError:
        return
    assert encode(msg) == bytes(payload)


def _with_record_flags(payload: bytes, flags: int) -> bytes:
    """``payload`` (one record after the header) with the record's
    flags byte set to ``flags`` and its CRC recomputed."""
    out = bytearray(payload)
    at = MESSAGE_HEADER_BYTES
    out[at + 8] = flags
    out[at + 12:at + 16] = struct.pack(
        "!I", zlib.crc32(bytes(out[at + 16:]),
                         zlib.crc32(bytes(out[at:at + 12]))))
    return bytes(out)


def _header(mtype: int, epoch: int, a: int, b: int) -> bytes:
    return struct.pack("!HBB16sIII", MESSAGE_MAGIC, mtype, WIRE_VERSION,
                       b"", epoch, a, b)


_FORCE = encode(ForceLogMsg("c", 1, (StoredRecord(1, 1, data=b"x"),)))


@pytest.mark.parametrize("payload", [
    _header(3, 0, 0, 1),                            # NewInterval, b = 1
    _header(13, 0, 2, 0),                           # AckReply, a = 2
    _header(4, 7, 1, 0),                            # NewHighLSN, epoch 7
    encode(IntervalListCall("c")) + b"junk",        # a header-only body
    _with_record_flags(_FORCE, 0x03),               # unknown record flags
], ids=["newinterval-b", "ack-a", "newhighlsn-epoch", "call-junk",
        "record-flags"])
def test_decode_refuses_bytes_encode_never_produces(payload):
    with pytest.raises(WireCodecError):
        decode(payload)


def test_record_flags_are_refused_on_the_wire_only():
    """``log.dat`` replay decodes records with ``decode_stored_record``
    alone, which takes a stored image whatever its flags — a file
    written before the wire refused them opens as it always did."""
    assert decode(_with_record_flags(_FORCE, 0x01)) == decode(_FORCE)
    image = _with_record_flags(_FORCE, 0x03)[MESSAGE_HEADER_BYTES:]
    record, end = decode_stored_record(image, 0)
    assert record == StoredRecord(1, 1, data=b"x") and end == len(image)


_hostile_streams = st.tuples(
    st.lists(st.one_of(
        st.one_of(messages(), generator_messages()).map(frame),
        _plausible.map(_framed),
        st.binary(max_size=120).map(_framed),
        st.binary(max_size=60)), min_size=1, max_size=5).map(b"".join),
    _damage).map(lambda t: _damaged(*t))


def _chunks(stream: bytes, cuts: list[int]) -> list[bytes]:
    edges = [0, *sorted(cut % (len(stream) + 1) for cut in cuts),
             len(stream)]
    return [stream[lo:hi] for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=500, deadline=None)
@given(_hostile_streams, st.lists(st.integers(0, 2**16), max_size=6))
def test_frame_readers_answer_hostile_streams_with_codec_errors_and_agree(
        stream, cuts):
    """Over any stream in any chunking, ``FrameReader`` (which decodes)
    and ``FrameScanner`` (which only finds boundaries) raise nothing
    but ``WireCodecError``, and up to the first error each frame one
    yields is the frame the other yields."""
    chunks = _chunks(stream, cuts)

    async def read_all() -> list:
        source = asyncio.StreamReader()
        for chunk in chunks:
            source.feed_data(chunk)
        source.feed_eof()
        reader = FrameReader(source)
        out = []
        try:
            while (msg := await reader.read_message()) is not None:
                out.append(msg)
        except WireCodecError:
            pass
        reader.close()
        return out

    decoded = asyncio.run(read_all())

    def scan_all(pieces) -> tuple[list, bool]:
        scanner = FrameScanner()
        out = []
        try:
            for piece in pieces:
                out += scanner.feed(piece)
        except WireCodecError:
            return out, True
        return out, False

    for pieces in (chunks, [stream[i:i + 1] for i in range(len(stream))]):
        scanned, failed = scan_all(pieces)
        for message, scanned_frame in zip(decoded, scanned):
            assert decode(scanned_frame.data[4:]) == message
        if not failed:
            # checking less, the scanner gets at least as far
            assert len(scanned) >= len(decoded)
    # fed a byte at a time, every frame is out before the scanner has
    # looked at what follows it: nothing the reader decoded is missing,
    # and the frames lie end to end from the start of the stream
    assert len(scanned) >= len(decoded)
    consumed = b"".join(f.data for f in scanned)
    assert stream.startswith(consumed)
