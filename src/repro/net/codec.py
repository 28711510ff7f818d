"""Binary wire codec for the Figure 4-1 message set.

The simulator charges transmission time from each message's
``wire_size`` property; this module makes those numbers *real*: every
message of :mod:`repro.net.messages` encodes to exactly ``wire_size``
bytes, so the byte counts the capacity analysis of Section 4.1 reasons
about are the byte counts that cross a TCP socket in the real runtime
(:mod:`repro.rt`).

Layout
------

A *frame* on a stream is a 4-byte big-endian length prefix followed by
the encoded message.  The prefix is transport framing (the simulated
LAN charges its own 64-byte packet header instead) and is not counted
by ``wire_size``.

Encoded message = 32-byte header (``MESSAGE_HEADER_BYTES``)::

    !HBB16sIII — magic, type, flags, client_id, epoch, a, b

followed by a type-specific body.  Each message class is one row of
:data:`_WIRE`: its type code, its ``net.<kind>.<dir>`` fault-site name,
which message fields ride in the header words ``epoch``/``a``/``b``
(LSNs, generator values, the ack flag, a ReadLog call's
``max_records`` in ``b``; unused words are zero), and its body kind:

* records (WriteLog, ForceLog, CopyLog, ReadLogReply): a sequence of
  records, each a 16-byte record header (``RECORD_HEADER_BYTES``:
  ``!IIBBHI`` — lsn, epoch, flags, kind, data length, CRC-32 of the
  preceding header fields *and* the data) followed by the data bytes;
* intervals (IntervalListReply): 12 bytes per interval (``!III`` —
  epoch, lo, hi), "storing one interval requires space for three
  integers";
* text (ErrorReply): the UTF-8 reason string;
* counters (StatsReply): one ``!Q`` per counter;
* none: every other message is its header alone.

Encoding, decoding, the frame scanner's kind names and the fault
grammar's vocabulary all read that one table.  Decoding accepts exactly
the bytes encoding produces: a header word the row does not use must
be zero, a header-only message carries no body, and a record's flags
byte is 0 or 1.  LSNs and epochs are 32-bit on the wire, record
payloads at most 64 KiB, client ids at most 16 UTF-8 bytes, and record
kinds come from a fixed registry — each limit is checked at encode
time and raises :class:`WireCodecError`.
"""

from __future__ import annotations

import asyncio
import struct
import zlib
from typing import Any, Callable, NamedTuple

from ..core.intervals import Interval
from ..core.records import (
    FIRST_EPOCH,
    FIRST_LSN,
    StoredRecord,
    trusted_stored_record,
)
from .messages import (
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
    Message,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    PingMsg,
    PongMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    StatsCall,
    StatsReply,
    TruncateLogCall,
    TruncateReply,
    WriteLogMsg,
)


class WireCodecError(Exception):
    """A message cannot be encoded, or bytes cannot be decoded."""


#: "LG" — first two bytes of every encoded message.
MESSAGE_MAGIC = 0x4C47
WIRE_VERSION = 1

#: Sanity ceiling on a frame read from an untrusted stream.
MAX_FRAME_BYTES = 4 << 20

_HEADER = struct.Struct("!HBB16sIII")
_RECORD = struct.Struct("!IIBBHI")
#: the CRC-covered fields of ``_RECORD`` (everything before the CRC
#: itself): lsn, epoch, flags, kind, data length.  The record CRC spans
#: header *and* data — a flipped bit in the epoch or LSN must be just as
#: detectable as one in the payload (a header-only flip once fabricated
#: a higher-epoch record on recovery; see ``repro crashsweep``).
_RECORD_PREFIX = struct.Struct("!IIBBH")
_INTERVAL = struct.Struct("!III")
_FRAME_PREFIX = struct.Struct("!I")
_MAGIC = struct.Struct("!H")

assert _HEADER.size == MESSAGE_HEADER_BYTES
assert _RECORD.size == RECORD_HEADER_BYTES

#: Bytes of the stream-level length prefix preceding each encoded message.
FRAME_PREFIX_BYTES = _FRAME_PREFIX.size

#: Largest value carried in a u32 wire field (LSNs, epochs).
MAX_WIRE_INT = 2**32 - 1
#: Largest record payload (u16 length field).
MAX_RECORD_DATA = 2**16 - 1
#: Largest client id, UTF-8 encoded.
MAX_CLIENT_ID_BYTES = 16

#: Record kinds are a closed registry so one byte suffices on the wire
#: (RECORD_HEADER_BYTES leaves no room for a string).  Every kind the
#: repository writes is here; register new ones before logging them.
KIND_CODES: dict[str, int] = {
    "data": 0,
    "update": 1,
    "commit": 2,
    "guard": 3,
    "begin": 4,
    "redo": 5,
    "undo": 6,
    "abort": 7,
    "savepoint": 8,
    "rollback": 9,
    "checkpoint": 10,
    "ack": 11,
    "syn": 12,
    "synack": 13,
    "force": 14,
}
CODE_KINDS: dict[int, str] = {v: k for k, v in KIND_CODES.items()}

_PRESENT_FLAG = 0x01
#: offset of the flags byte in a record header (after lsn and epoch).
_RECORD_FLAGS_AT = 8


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= MAX_WIRE_INT:
        raise WireCodecError(f"{what} {value} outside 32-bit wire range")
    return value


#: validated-id cache: every message of a connection's lifetime carries
#: the same few client ids; bounded so a hostile id stream cannot grow
#: it without limit.
_CID_CACHE: dict[str, bytes] = {}
_CID_CACHE_MAX = 4096


def _encode_client_id(client_id: str) -> bytes:
    raw = _CID_CACHE.get(client_id)
    if raw is not None:
        return raw
    raw = client_id.encode("utf-8")
    if len(raw) > MAX_CLIENT_ID_BYTES:
        raise WireCodecError(
            f"client id {client_id!r} exceeds {MAX_CLIENT_ID_BYTES} bytes"
        )
    if len(_CID_CACHE) < _CID_CACHE_MAX:
        _CID_CACHE[client_id] = raw
    return raw


# -- records ----------------------------------------------------------------


def encode_stored_record(record: StoredRecord) -> bytes:
    """Encode one record: 16-byte header + data, CRC-32 protected.

    Shared with the durable file store (:mod:`repro.rt.filestore`), so
    the on-disk and on-wire record images are the same bytes.
    """
    kind_code = KIND_CODES.get(record.kind)
    if kind_code is None:
        raise WireCodecError(f"unregistered record kind {record.kind!r}")
    data = record.data
    if len(data) > MAX_RECORD_DATA:
        raise WireCodecError(f"record data {len(data)} bytes exceeds u16")
    flags = _PRESENT_FLAG if record.present else 0
    prefix = _RECORD_PREFIX.pack(
        _check_u32(record.lsn, "LSN"),
        _check_u32(record.epoch, "epoch"),
        flags, kind_code, len(data),
    )
    crc = zlib.crc32(data, zlib.crc32(prefix))
    return prefix + _FRAME_PREFIX.pack(crc) + data


def decode_stored_record(buf: bytes, offset: int) -> tuple[StoredRecord, int]:
    """Decode one record at ``offset``; return it and the next offset.

    Field validation (the :class:`StoredRecord` invariants) is inlined
    and the record built through the trusted constructor: this runs
    once per record on both server receive and recovery replay.
    """
    end = offset + RECORD_HEADER_BYTES
    if end > len(buf):
        raise WireCodecError("truncated record header")
    lsn, epoch, flags, kind_code, dlen, crc = _RECORD.unpack_from(buf, offset)
    data = bytes(buf[end:end + dlen])
    if len(data) != dlen:
        raise WireCodecError("truncated record data")
    prefix_crc = zlib.crc32(buf[offset:offset + _RECORD_PREFIX.size])
    if zlib.crc32(data, prefix_crc) != crc:
        raise WireCodecError(f"record ⟨{lsn},{epoch}⟩ failed CRC check")
    kind = CODE_KINDS.get(kind_code)
    if kind is None:
        raise WireCodecError(f"unknown record kind code {kind_code}")
    present = bool(flags & _PRESENT_FLAG)
    if lsn < FIRST_LSN:
        raise WireCodecError(f"LSN must be >= {FIRST_LSN}, got {lsn}")
    if epoch < FIRST_EPOCH:
        raise WireCodecError(f"epoch must be >= {FIRST_EPOCH}, got {epoch}")
    if not present and data:
        raise WireCodecError("a not-present record must not carry data")
    return trusted_stored_record(lsn, epoch, present, data, kind), end + dlen


def check_stored_image(image: bytes, lsn: int, epoch: int) -> bytes:
    """CRC-check one whole record image expected to hold ⟨lsn, epoch⟩;
    return its data.

    For the file store's reads: the index already holds the record's
    validated fields, so all an image read back from disk owes is that
    its bytes are intact and are that record's — a fraction of what
    :func:`decode_stored_record` does for bytes off the wire.
    """
    if len(image) < RECORD_HEADER_BYTES:
        raise WireCodecError("truncated record header")
    got_lsn, got_epoch, _, _, dlen, crc = _RECORD.unpack_from(image, 0)
    data = image[RECORD_HEADER_BYTES:]
    if len(data) != dlen:
        raise WireCodecError("truncated record data")
    if zlib.crc32(data, zlib.crc32(image[:_RECORD_PREFIX.size])) != crc:
        raise WireCodecError(f"record ⟨{lsn},{epoch}⟩ failed CRC check")
    if got_lsn != lsn or got_epoch != epoch:
        raise WireCodecError(
            f"image holds ⟨{got_lsn},{got_epoch}⟩, not ⟨{lsn},{epoch}⟩")
    return data


def _decode_records(buf: bytes, offset: int,
                    images: list[bytes] | None = None,
                    ) -> tuple[StoredRecord, ...]:
    records = []
    while offset < len(buf):
        record, end = decode_stored_record(buf, offset)
        # Only on the wire: replay of ``log.dat`` (decode_stored_record
        # alone) takes whatever flags a stored image has.
        if buf[offset + _RECORD_FLAGS_AT] > _PRESENT_FLAG:
            raise WireCodecError(
                f"record ⟨{record.lsn},{record.epoch}⟩ has unknown flags")
        if images is not None:
            # The CRC-checked wire image, byte-compatible with
            # ``encode_stored_record`` — the server appends these to
            # disk directly instead of re-encoding every record.
            images.append(bytes(buf[offset:end]))
        records.append(record)
        offset = end
    return tuple(records)


# -- the wire table ---------------------------------------------------------


class _Body(NamedTuple):
    """How a message's body follows its header: nothing, records,
    intervals, text or counters."""

    #: message → its body as a list of buffers
    parts: Callable[[Any], list[bytes]]
    #: (buffer, body offset, record images) → the value ``build`` takes
    parse: Callable[[Any, int, Any], Any]


def _header_only(buf, offset: int, images) -> None:
    if len(buf) != offset:
        raise WireCodecError("a header-only message carries a body")


def _encode_intervals(msg: IntervalListReply) -> list[bytes]:
    return [_INTERVAL.pack(_check_u32(i.epoch, "epoch"),
                           _check_u32(i.lo, "interval lo"),
                           _check_u32(i.hi, "interval hi"))
            for i in msg.intervals]


def _decode_intervals(buf, offset: int, images) -> tuple[Interval, ...]:
    if (len(buf) - offset) % _INTERVAL.size:
        raise WireCodecError("interval body not a multiple of 12")
    return tuple(Interval(e, lo, hi)
                 for e, lo, hi in _INTERVAL.iter_unpack(buf[offset:]))


def _decode_counters(buf, offset: int, images) -> tuple[int, ...]:
    if (len(buf) - offset) % 8:
        raise WireCodecError("stats body not a multiple of 8")
    return tuple(v for (v,) in struct.iter_unpack("!Q", buf[offset:]))


_NONE = _Body(lambda m: [], _header_only)
_RECORDS = _Body(lambda m: [encode_stored_record(r) for r in m.records],
                 _decode_records)
_INTERVALS = _Body(_encode_intervals, _decode_intervals)
_TEXT = _Body(lambda m: [m.reason.encode("utf-8")],
              lambda buf, offset, images: bytes(buf[offset:]).decode("utf-8"))
_COUNTERS = _Body(
    lambda m: [struct.pack(f"!{len(m.counters)}Q", *m.counters)],
    _decode_counters)


class _Row(NamedTuple):
    """One message type on the wire."""

    cls: type[Message]
    code: int
    #: the ``<kind>`` of the ``net.<kind>.<dir>`` fault sites
    name: str
    body: _Body
    #: message → its header words ``(epoch, a, b)``
    words: Callable[[Any], tuple[int, int, int]]
    #: ``(client_id, epoch, a, b, body) → message``
    build: Callable[[str, int, int, int, Any], Message]


# header words shared by several rows
def _no_words(msg) -> tuple[int, int, int]:
    return 0, 0, 0


def _epoch_word(msg) -> tuple[int, int, int]:
    return msg.epoch, 0, 0


def _read_words(msg) -> tuple[int, int, int]:
    return 0, msg.lsn, msg.max_records


def _token_word(msg) -> tuple[int, int, int]:
    return 0, msg.token, 0


def _value_words(msg) -> tuple[int, int, int]:
    """A 64-bit generator value as the words ``a`` (low) and ``b``."""
    return 0, msg.value & 0xFFFFFFFF, msg.value >> 32


_WIRE: tuple[_Row, ...] = (
    _Row(WriteLogMsg, 1, "writelog", _RECORDS, _epoch_word,
         lambda cid, e, a, b, body: WriteLogMsg(cid, e, body)),
    _Row(ForceLogMsg, 2, "forcelog", _RECORDS, _epoch_word,
         lambda cid, e, a, b, body: ForceLogMsg(cid, e, body)),
    _Row(NewIntervalMsg, 3, "newinterval", _NONE,
         lambda m: (m.epoch, m.starting_lsn, 0),
         lambda cid, e, a, b, body: NewIntervalMsg(cid, e, a)),
    _Row(NewHighLSNMsg, 4, "newhighlsn", _NONE,
         lambda m: (0, m.new_high_lsn, 0),
         lambda cid, e, a, b, body: NewHighLSNMsg(cid, a)),
    _Row(MissingIntervalMsg, 5, "missinginterval", _NONE,
         lambda m: (0, m.lo, m.hi),
         lambda cid, e, a, b, body: MissingIntervalMsg(cid, a, b)),
    _Row(IntervalListCall, 6, "intervallistcall", _NONE, _no_words,
         lambda cid, e, a, b, body: IntervalListCall(cid)),
    _Row(IntervalListReply, 7, "intervallistreply", _INTERVALS, _no_words,
         lambda cid, e, a, b, body: IntervalListReply(cid, body)),
    _Row(ReadLogForwardCall, 8, "readlogforward", _NONE, _read_words,
         lambda cid, e, a, b, body: ReadLogForwardCall(cid, a, b)),
    _Row(ReadLogBackwardCall, 9, "readlogbackward", _NONE, _read_words,
         lambda cid, e, a, b, body: ReadLogBackwardCall(cid, a, b)),
    _Row(ReadLogReply, 10, "readlogreply", _RECORDS, _no_words,
         lambda cid, e, a, b, body: ReadLogReply(cid, body)),
    _Row(CopyLogCall, 11, "copylog", _RECORDS, _epoch_word,
         lambda cid, e, a, b, body: CopyLogCall(cid, e, body)),
    _Row(InstallCopiesCall, 12, "installcopies", _NONE, _epoch_word,
         lambda cid, e, a, b, body: InstallCopiesCall(cid, e)),
    _Row(AckReply, 13, "ack", _NONE,
         lambda m: (0, int(m.ok), 0),
         lambda cid, e, a, b, body: AckReply(cid, bool(a))),
    _Row(ErrorReply, 14, "error", _TEXT,
         lambda m: (0, m.code, 0),
         lambda cid, e, a, b, body: ErrorReply(cid, body, code=a)),
    _Row(GeneratorReadCall, 15, "genreadcall", _NONE, _no_words,
         lambda cid, e, a, b, body: GeneratorReadCall(cid)),
    _Row(GeneratorReadReply, 16, "genreadreply", _NONE, _value_words,
         lambda cid, e, a, b, body: GeneratorReadReply(cid, b << 32 | a)),
    _Row(GeneratorWriteCall, 17, "genwritecall", _NONE, _value_words,
         lambda cid, e, a, b, body: GeneratorWriteCall(cid, b << 32 | a)),
    _Row(PingMsg, 18, "ping", _NONE, _token_word,
         lambda cid, e, a, b, body: PingMsg(cid, token=a)),
    _Row(PongMsg, 19, "pong", _NONE, _token_word,
         lambda cid, e, a, b, body: PongMsg(cid, token=a)),
    _Row(TruncateLogCall, 20, "truncatelog", _NONE,
         lambda m: (m.epoch, m.low_water_lsn, 0),
         lambda cid, e, a, b, body: TruncateLogCall(
             cid, low_water_lsn=a, epoch=e)),
    _Row(TruncateReply, 21, "truncatereply", _NONE,
         lambda m: (0, m.low_water_lsn, m.records_dropped),
         lambda cid, e, a, b, body: TruncateReply(
             cid, low_water_lsn=a, records_dropped=b)),
    _Row(StatsCall, 22, "statscall", _NONE, _no_words,
         lambda cid, e, a, b, body: StatsCall(cid)),
    _Row(StatsReply, 23, "statsreply", _COUNTERS, _no_words,
         lambda cid, e, a, b, body: StatsReply(cid, body)),
    _Row(FenceLogCall, 24, "fencelog", _NONE, _epoch_word,
         lambda cid, e, a, b, body: FenceLogCall(cid, epoch=e)),
    _Row(FenceReply, 25, "fencereply", _NONE, _epoch_word,
         lambda cid, e, a, b, body: FenceReply(cid, epoch=e)),
)
_ROW_OF_CLASS = {row.cls: row for row in _WIRE}
_ROW_OF_CODE = {row.code: row for row in _WIRE}

#: type code → short lowercase kind name: the vocabulary of the
#: ``net.<kind>.<dir>`` fault sites of :mod:`repro.rt.chaosproxy`.
TYPE_NAMES: dict[int, str] = {row.code: row.name for row in _WIRE}
NAME_TYPES: dict[str, int] = {row.name: row.code for row in _WIRE}

#: kinds whose body is a CRC-protected record sequence.  Corrupting
#: their payload is always *detectable* — the receiver rejects the
#: record — unlike e.g. an interval list, whose body bytes carry no
#: checksum of their own (TCP's is the model's integrity layer there).
RECORD_BEARING_KINDS = frozenset(
    row.name for row in _WIRE if row.body is _RECORDS)


# -- messages ---------------------------------------------------------------


def _message_parts(
    msg: Message,
    record_bufs: list[bytes] | None = None,
) -> list[bytes]:
    """Encode ``msg`` as a list of buffers: ``[header, *body_parts]``.

    The concatenation of the parts is exactly ``encode(msg)``.  For
    record-bearing messages each record is its own part (suitable for a
    scatter-gather ``writelines``), and ``record_bufs`` may supply
    already-encoded record images — the encode-once cache the client
    keeps alongside its window — instead of re-encoding ``msg.records``.
    """
    row = _ROW_OF_CLASS.get(type(msg))
    if row is None:
        raise WireCodecError(f"cannot encode {type(msg).__name__}")
    epoch, a, b = row.words(msg)
    header = _HEADER.pack(
        MESSAGE_MAGIC, row.code, WIRE_VERSION,
        _encode_client_id(msg.client_id),
        _check_u32(epoch, "epoch"), _check_u32(a, "field a"),
        _check_u32(b, "field b"),
    )
    if record_bufs is not None and row.body is _RECORDS:
        # Caller-supplied record images skip the size cross-check:
        # ``wire_size`` re-walks every record, and the images are the
        # same bytes the encode path produces (the codec property tests
        # pin this).
        return [header, *record_bufs]
    body = row.body.parts(msg)
    total = MESSAGE_HEADER_BYTES + sum(len(part) for part in body)
    if total != msg.wire_size:
        raise WireCodecError(
            f"{type(msg).__name__} encoded to {total} bytes but "
            f"declares wire_size {msg.wire_size}"
        )
    return [header, *body]


def encode(msg: Message) -> bytes:
    """Encode ``msg``; the result is exactly ``msg.wire_size`` bytes."""
    return b"".join(_message_parts(msg))


def decode(buf, record_images: list[bytes] | None = None) -> Message:
    """Decode one encoded message (the payload of one frame).

    Accepts any buffer — ``bytes``, ``bytearray``, or a ``memoryview``
    slice of a persistent receive buffer (:class:`FrameReader`); only
    record payloads and text fields are copied out.  Whatever it
    returns re-encodes to exactly ``buf``.

    ``record_images``, when given, collects the raw CRC-checked wire
    image of each record of a record-bearing message — byte-compatible
    with :func:`encode_stored_record`, so the server's append path can
    write the wire bytes straight to disk without re-encoding.
    """
    if len(buf) < MESSAGE_HEADER_BYTES:
        raise WireCodecError(f"message shorter than header: {len(buf)} bytes")
    magic, mtype, version, cid_raw, epoch, a, b = _HEADER.unpack_from(buf, 0)
    if magic != MESSAGE_MAGIC:
        raise WireCodecError(f"bad magic 0x{magic:04x}")
    if version != WIRE_VERSION:
        raise WireCodecError(f"unsupported wire version {version}")
    row = _ROW_OF_CODE.get(mtype)
    if row is None:
        raise WireCodecError(f"unknown message type {mtype}")
    try:  # a UnicodeDecodeError is a ValueError too
        client_id = cid_raw.rstrip(b"\x00").decode("utf-8")
        body = row.body.parse(buf, MESSAGE_HEADER_BYTES, record_images)
        msg = row.build(client_id, epoch, a, b, body)
    except ValueError as exc:
        raise WireCodecError(str(exc)) from exc
    if row.words(msg) != (epoch, a, b):
        raise WireCodecError(
            f"{row.name} does not use header words {(epoch, a, b)}")
    return msg


# -- stream framing ---------------------------------------------------------


def frame(msg: Message) -> bytes:
    """Length-prefixed frame ready for a stream write."""
    return b"".join(frame_iov(msg))


#: all fixed-size header-only frames are MESSAGE_HEADER_BYTES long.
_HEADER_FRAME_PREFIX = _FRAME_PREFIX.pack(MESSAGE_HEADER_BYTES)
_NEW_HIGH_LSN_CODE = _ROW_OF_CLASS[NewHighLSNMsg].code


def frame_new_high_lsn(client_id: str, new_high_lsn: int) -> bytes:
    """The NewHighLSN ack, framed, in one pack — the group-commit
    fan-out sends one of these per parked force, so it skips the
    generic ``frame(NewHighLSNMsg(...))`` dispatch.  Byte-identical to
    ``frame(NewHighLSNMsg(client_id, new_high_lsn))``.
    """
    return _HEADER_FRAME_PREFIX + _HEADER.pack(
        MESSAGE_MAGIC, _NEW_HIGH_LSN_CODE, WIRE_VERSION,
        _encode_client_id(client_id), 0,
        _check_u32(new_high_lsn, "new high LSN"), 0,
    )


def frame_iov(msg: Message,
              record_bufs: list[bytes] | None = None) -> list[bytes]:
    """Length-prefixed frame as an iovec for ``writer.writelines``.

    The first buffer is the 4-byte prefix fused with the 32-byte
    message header (they are always sent together); the rest are the
    body parts — per-record images for record-bearing messages, shared
    unchanged across every connection that sends the same frame.
    ``record_bufs`` optionally supplies pre-encoded record images
    (``encode_stored_record`` output, one per ``msg.records`` entry, in
    order) so a hot sender never encodes a record twice.
    """
    parts = _message_parts(msg, record_bufs)
    payload_len = sum(len(part) for part in parts)
    return [_FRAME_PREFIX.pack(payload_len) + parts[0], *parts[1:]]


def _frame_length(buf, pos: int = 0) -> int:
    """The length prefix at ``pos``, checked to be a plausible frame's."""
    (length,) = _FRAME_PREFIX.unpack_from(buf, pos)
    if length < MESSAGE_HEADER_BYTES or length > MAX_FRAME_BYTES:
        raise WireCodecError(f"implausible frame length {length}")
    return length


async def read_message(reader: asyncio.StreamReader) -> Message | None:
    """Read one framed message; ``None`` on clean EOF at a frame edge."""
    try:
        prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireCodecError("stream ended inside a frame prefix") from exc
    length = _frame_length(prefix)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireCodecError("stream ended inside a frame") from exc
    return decode(payload)


# -- persistent receive buffers ---------------------------------------------

#: Bytes requested per socket read by :class:`FrameReader` — large
#: enough to swallow many back-to-back frames in one syscall.
RECV_CHUNK_BYTES = 256 * 1024
#: Consumed-prefix size beyond which a receive buffer is compacted
#: (sooner if the buffer is fully drained, which is free).
_COMPACT_THRESHOLD = 128 * 1024

#: Most bytes one socket ``recv`` may return (see
#: :func:`bound_socket_reads`): under glibc's 128 KiB ``mmap``
#: threshold, and room for a full ReadLog reply.
SOCKET_READ_BYTES = 96 * 1024

#: where a frame's magic ends — and its type code sits — from its start.
_MAGIC_END = FRAME_PREFIX_BYTES + _MAGIC.size


def bound_socket_reads(transport: asyncio.BaseTransport) -> None:
    """Keep the transport from allocating 256 KiB per socket read.

    asyncio's selector transport ``recv``s into a fresh ``bytes`` of
    its ``max_size`` — 256 KiB — on every wakeup, then shrinks it to
    the few hundred bytes that arrived.  At that size glibc serves the
    allocation either from the heap or by ``mmap``/``mremap``/
    ``munmap`` — three syscalls and a page fault per message,
    ≈ 90 µs on the benchmark box — and which of the two a process gets
    depends on its allocation history, so an unrelated edit flips a
    client between them (EXPERIMENTS.md E22).  A read size below the
    ``mmap`` threshold is always heap-served.  Transports without the
    attribute are left alone.
    """
    if getattr(transport, "max_size", 0) > SOCKET_READ_BYTES:
        transport.max_size = SOCKET_READ_BYTES


class ScannedFrame:
    """One complete frame lifted off a byte stream, undecoded.

    ``data`` is the full wire image — 4-byte length prefix plus the
    encoded message — so forwarding ``data`` unchanged is a perfect
    relay, and mutating it models exactly one damaged message.
    """

    __slots__ = ("data", "mtype")

    def __init__(self, data: bytes, mtype: int):
        self.data = data
        self.mtype = mtype

    @property
    def kind(self) -> str:
        return TYPE_NAMES.get(self.mtype, f"type{self.mtype}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScannedFrame(kind={self.kind}, bytes={len(self.data)})"


class FrameScanner:
    """Sans-IO incremental frame-boundary scanner over raw wire bytes.

    The fault-injecting proxy (:mod:`repro.rt.chaosproxy`) feeds each
    pump direction's chunks through one of these; partial frames are
    buffered across chunks and every *complete* frame comes back as a
    :class:`ScannedFrame`, so faults can target protocol messages
    rather than arbitrary 4096-byte windows.  It never decodes bodies —
    a relay must forward byte-exact images, deliberately corrupted ones
    included; :class:`FrameReader` is the scanner that does.

    The receive buffer, its compaction and the boundary check are the
    ones both share, so a relay and an endpoint always agree on where a
    frame ends.  A stream that desynchronizes — an implausible length
    prefix, or a bad magic, raised as soon as its two bytes are in —
    raises :class:`WireCodecError`; the proxy degrades that connection
    to raw passthrough and lets the endpoint's decoder tear it down.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: where the next frame starts; the bytes before it are consumed
        self._pos = 0
        #: complete frames returned since construction.
        self.frames_scanned = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buf) - self._pos

    def take_buffer(self) -> bytes:
        """Drain and return the partial buffer (passthrough fallback)."""
        data = bytes(self._buf[self._pos:])
        self.close()
        return data

    def close(self) -> None:
        """Drop the receive buffer."""
        self._buf = bytearray()
        self._pos = 0

    def _append(self, chunk: bytes) -> None:
        """Buffer ``chunk``, first dropping the consumed prefix once it
        is worth the memmove."""
        if self._pos and (self._pos >= len(self._buf)
                          or self._pos >= _COMPACT_THRESHOLD):
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += chunk

    def _frame_end(self) -> int:
        """Where the frame at the read position ends, once all of it is
        buffered; 0 until then."""
        buf, pos = self._buf, self._pos
        avail = len(buf) - pos
        if avail < FRAME_PREFIX_BYTES:
            return 0
        length = _frame_length(buf, pos)
        if avail >= _MAGIC_END:
            (magic,) = _MAGIC.unpack_from(buf, pos + FRAME_PREFIX_BYTES)
            if magic != MESSAGE_MAGIC:
                raise WireCodecError(f"bad message magic 0x{magic:04x}")
        end = pos + FRAME_PREFIX_BYTES + length
        return end if end <= len(buf) else 0

    def feed(self, chunk: bytes) -> list[ScannedFrame]:
        """Buffer ``chunk``; return every frame now complete, in order.

        On a :class:`WireCodecError` nothing of this chunk counts as
        scanned: :meth:`take_buffer` returns every byte not returned.
        """
        self._append(chunk)
        start = self._pos
        frames: list[ScannedFrame] = []
        try:
            while end := self._frame_end():
                pos = self._pos
                frames.append(ScannedFrame(bytes(self._buf[pos:end]),
                                           self._buf[pos + _MAGIC_END]))
                self._pos = end
        except WireCodecError:
            self._pos = start
            raise
        self.frames_scanned += len(frames)
        return frames


class FrameReader(FrameScanner):
    """A :class:`FrameScanner` over a ``StreamReader`` that decodes.

    One socket read refills the buffer with up to ``RECV_CHUNK_BYTES``;
    every complete frame already buffered is then decoded without
    touching the socket again, each from a ``memoryview`` slice so no
    per-frame payload copy is made.  This replaces the two
    ``readexactly`` calls (and two allocations) per frame of
    :func:`read_message` on the hot paths of ``rt.server`` and
    ``rt.client``.  Frames go through the module's :func:`decode`,
    looked up on every call.
    """

    def __init__(self, reader: asyncio.StreamReader):
        super().__init__()
        self._reader = reader

    async def read_message(
        self, record_images: list[bytes] | None = None,
    ) -> Message | None:
        """Next framed message; ``None`` on clean EOF at a frame edge.

        ``record_images`` is forwarded to :func:`decode`: the server
        passes a scratch list here to capture each WriteLog/ForceLog
        record's raw wire image for the zero-re-encode append path.
        """
        while not (end := self._frame_end()):
            chunk = await self._reader.read(RECV_CHUNK_BYTES)
            if not chunk:
                if self.pending_bytes:
                    raise WireCodecError("stream ended inside a frame")
                return None
            self._append(chunk)
        start = self._pos + FRAME_PREFIX_BYTES
        with memoryview(self._buf) as view:
            msg = decode(view[start:end], record_images)
        self._pos = end
        return msg
