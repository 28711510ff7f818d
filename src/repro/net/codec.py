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

followed by a type-specific body:

* record-bearing messages (WriteLog, ForceLog, CopyLog, ReadLogReply):
  a sequence of records, each a 16-byte record header
  (``RECORD_HEADER_BYTES``: ``!IIBBHI`` — lsn, epoch, flags, kind,
  data length, CRC-32 of the preceding header fields *and* the data)
  followed by the data bytes;
* IntervalListReply: 12 bytes per interval (``!III`` — epoch, lo, hi),
  "storing one interval requires space for three integers";
* ErrorReply: the UTF-8 reason string.

``a``/``b`` carry the scalar arguments (LSNs, generator values, the
ack flag, a ReadLog call's ``max_records`` in ``b``); unused slots are
zero.  LSNs and epochs are 32-bit on the
wire, record payloads at most 64 KiB, client ids at most 16 UTF-8
bytes, and record kinds come from a fixed registry — each limit is
checked at encode time and raises :class:`WireCodecError`.
"""

from __future__ import annotations

import asyncio
import struct
import zlib

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

assert _HEADER.size == MESSAGE_HEADER_BYTES
assert _RECORD.size == RECORD_HEADER_BYTES

#: Largest value carried in a u32 wire field (LSNs, epochs).
MAX_WIRE_INT = 2**32 - 1
#: Largest record payload (u16 length field).
MAX_RECORD_DATA = 2**16 - 1
#: Largest client id, UTF-8 encoded.
MAX_CLIENT_ID_BYTES = 16

# Message type codes.
T_WRITE_LOG = 1
T_FORCE_LOG = 2
T_NEW_INTERVAL = 3
T_NEW_HIGH_LSN = 4
T_MISSING_INTERVAL = 5
T_INTERVAL_LIST_CALL = 6
T_INTERVAL_LIST_REPLY = 7
T_READ_LOG_FORWARD = 8
T_READ_LOG_BACKWARD = 9
T_READ_LOG_REPLY = 10
T_COPY_LOG = 11
T_INSTALL_COPIES = 12
T_ACK = 13
T_ERROR = 14
T_GENERATOR_READ_CALL = 15
T_GENERATOR_READ_REPLY = 16
T_GENERATOR_WRITE_CALL = 17
T_PING = 18
T_PONG = 19
T_TRUNCATE_LOG = 20
T_TRUNCATE_REPLY = 21
T_STATS_CALL = 22
T_STATS_REPLY = 23
T_FENCE_LOG = 24
T_FENCE_REPLY = 25

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


def _decode_client_id(raw: bytes) -> str:
    try:
        return raw.rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireCodecError(f"undecodable client id {raw!r}") from exc


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


def _encode_records(records: tuple[StoredRecord, ...]) -> bytes:
    return b"".join(encode_stored_record(r) for r in records)


def _decode_records(buf: bytes, offset: int,
                    images: list[bytes] | None = None,
                    ) -> tuple[StoredRecord, ...]:
    records = []
    while offset < len(buf):
        record, end = decode_stored_record(buf, offset)
        if images is not None:
            # The CRC-checked wire image, byte-compatible with
            # ``encode_stored_record`` — the server appends these to
            # disk directly instead of re-encoding every record.
            images.append(bytes(buf[offset:end]))
        records.append(record)
        offset = end
    return tuple(records)


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
    epoch = a = b = 0
    body: list[bytes] = []
    # ForceLogMsg subclasses WriteLogMsg: test it first.
    if isinstance(msg, ForceLogMsg):
        mtype, epoch = T_FORCE_LOG, msg.epoch
        body = record_bufs if record_bufs is not None else [
            encode_stored_record(r) for r in msg.records]
    elif isinstance(msg, WriteLogMsg):
        mtype, epoch = T_WRITE_LOG, msg.epoch
        body = record_bufs if record_bufs is not None else [
            encode_stored_record(r) for r in msg.records]
    elif isinstance(msg, NewIntervalMsg):
        mtype, epoch, a = T_NEW_INTERVAL, msg.epoch, msg.starting_lsn
    elif isinstance(msg, NewHighLSNMsg):
        mtype, a = T_NEW_HIGH_LSN, msg.new_high_lsn
    elif isinstance(msg, MissingIntervalMsg):
        mtype, a, b = T_MISSING_INTERVAL, msg.lo, msg.hi
    elif isinstance(msg, IntervalListCall):
        mtype = T_INTERVAL_LIST_CALL
    elif isinstance(msg, IntervalListReply):
        mtype = T_INTERVAL_LIST_REPLY
        body = [
            _INTERVAL.pack(_check_u32(i.epoch, "epoch"),
                           _check_u32(i.lo, "interval lo"),
                           _check_u32(i.hi, "interval hi"))
            for i in msg.intervals
        ]
    elif isinstance(msg, ReadLogForwardCall):
        mtype, a, b = T_READ_LOG_FORWARD, msg.lsn, msg.max_records
    elif isinstance(msg, ReadLogBackwardCall):
        mtype, a, b = T_READ_LOG_BACKWARD, msg.lsn, msg.max_records
    elif isinstance(msg, ReadLogReply):
        mtype = T_READ_LOG_REPLY
        body = record_bufs if record_bufs is not None else [
            encode_stored_record(r) for r in msg.records]
    elif isinstance(msg, CopyLogCall):
        mtype, epoch = T_COPY_LOG, msg.epoch
        body = record_bufs if record_bufs is not None else [
            encode_stored_record(r) for r in msg.records]
    elif isinstance(msg, InstallCopiesCall):
        mtype, epoch = T_INSTALL_COPIES, msg.epoch
    elif isinstance(msg, AckReply):
        mtype, a = T_ACK, int(msg.ok)
    elif isinstance(msg, ErrorReply):
        mtype, a = T_ERROR, msg.code
        body = [msg.reason.encode("utf-8")]
    elif isinstance(msg, PingMsg):
        mtype, a = T_PING, msg.token
    elif isinstance(msg, PongMsg):
        mtype, a = T_PONG, msg.token
    elif isinstance(msg, TruncateLogCall):
        mtype, epoch, a = T_TRUNCATE_LOG, msg.epoch, msg.low_water_lsn
    elif isinstance(msg, FenceLogCall):
        mtype, epoch = T_FENCE_LOG, msg.epoch
    elif isinstance(msg, FenceReply):
        mtype, epoch = T_FENCE_REPLY, msg.epoch
    elif isinstance(msg, TruncateReply):
        mtype, a, b = T_TRUNCATE_REPLY, msg.low_water_lsn, msg.records_dropped
    elif isinstance(msg, StatsCall):
        mtype = T_STATS_CALL
    elif isinstance(msg, StatsReply):
        mtype = T_STATS_REPLY
        body = [struct.pack(f"!{len(msg.counters)}Q", *msg.counters)]
    elif isinstance(msg, GeneratorReadCall):
        mtype = T_GENERATOR_READ_CALL
    elif isinstance(msg, GeneratorReadReply):
        mtype = T_GENERATOR_READ_REPLY
        a, b = msg.value & 0xFFFFFFFF, msg.value >> 32
        _check_u32(b, "generator value high word")
    elif isinstance(msg, GeneratorWriteCall):
        mtype = T_GENERATOR_WRITE_CALL
        a, b = msg.value & 0xFFFFFFFF, msg.value >> 32
        _check_u32(b, "generator value high word")
    else:
        raise WireCodecError(f"cannot encode {type(msg).__name__}")
    header = _HEADER.pack(
        MESSAGE_MAGIC, mtype, WIRE_VERSION,
        _encode_client_id(msg.client_id),
        _check_u32(epoch, "epoch"), _check_u32(a, "field a"),
        _check_u32(b, "field b"),
    )
    if record_bufs is None:
        # Cross-check freshly encoded parts against the declared size.
        # Caller-supplied record images skip this: ``wire_size``
        # re-walks every record, and the images are the same bytes the
        # encode path produces (the codec property tests pin this).
        total = MESSAGE_HEADER_BYTES + sum(len(part) for part in body)
        if total != msg.wire_size:
            raise WireCodecError(
                f"{type(msg).__name__} encoded to {total} bytes but "
                f"declares wire_size {msg.wire_size}"
            )
    return [header, *body]


def encode(msg: Message) -> bytes:
    """Encode ``msg``; the result is exactly ``msg.wire_size`` bytes."""
    parts = _message_parts(msg)
    if len(parts) == 1:
        return parts[0]
    return b"".join(parts)


def decode(buf, record_images: list[bytes] | None = None) -> Message:
    """Decode one encoded message (the payload of one frame).

    Accepts any buffer — ``bytes``, ``bytearray``, or a ``memoryview``
    slice of a persistent receive buffer (:class:`FrameReader`); only
    record payloads and text fields are copied out.

    ``record_images``, when given, collects the raw CRC-checked wire
    image of each record of a WriteLog/ForceLog — byte-compatible with
    :func:`encode_stored_record`, so the server's append path can write
    the wire bytes straight to disk without re-encoding.
    """
    if len(buf) < MESSAGE_HEADER_BYTES:
        raise WireCodecError(f"message shorter than header: {len(buf)} bytes")
    magic, mtype, version, cid_raw, epoch, a, b = _HEADER.unpack_from(buf, 0)
    if magic != MESSAGE_MAGIC:
        raise WireCodecError(f"bad magic 0x{magic:04x}")
    if version != WIRE_VERSION:
        raise WireCodecError(f"unsupported wire version {version}")
    client_id = _decode_client_id(cid_raw)
    off = MESSAGE_HEADER_BYTES
    try:
        if mtype == T_WRITE_LOG:
            return WriteLogMsg(client_id, epoch,
                               _decode_records(buf, off, record_images))
        if mtype == T_FORCE_LOG:
            return ForceLogMsg(client_id, epoch,
                               _decode_records(buf, off, record_images))
        if mtype == T_NEW_INTERVAL:
            return NewIntervalMsg(client_id, epoch, a)
        if mtype == T_NEW_HIGH_LSN:
            return NewHighLSNMsg(client_id, a)
        if mtype == T_MISSING_INTERVAL:
            return MissingIntervalMsg(client_id, a, b)
        if mtype == T_INTERVAL_LIST_CALL:
            return IntervalListCall(client_id)
        if mtype == T_INTERVAL_LIST_REPLY:
            if (len(buf) - off) % _INTERVAL.size:
                raise WireCodecError("interval body not a multiple of 12")
            intervals = tuple(
                Interval(e, lo, hi)
                for e, lo, hi in _INTERVAL.iter_unpack(buf[off:])
            )
            return IntervalListReply(client_id, intervals)
        if mtype == T_READ_LOG_FORWARD:
            return ReadLogForwardCall(client_id, a, b)
        if mtype == T_READ_LOG_BACKWARD:
            return ReadLogBackwardCall(client_id, a, b)
        if mtype == T_READ_LOG_REPLY:
            return ReadLogReply(client_id, _decode_records(buf, off))
        if mtype == T_COPY_LOG:
            return CopyLogCall(client_id, epoch, _decode_records(buf, off))
        if mtype == T_INSTALL_COPIES:
            return InstallCopiesCall(client_id, epoch)
        if mtype == T_ACK:
            return AckReply(client_id, bool(a))
        if mtype == T_ERROR:
            return ErrorReply(client_id, bytes(buf[off:]).decode("utf-8"),
                              code=a)
        if mtype == T_PING:
            return PingMsg(client_id, token=a)
        if mtype == T_PONG:
            return PongMsg(client_id, token=a)
        if mtype == T_TRUNCATE_LOG:
            return TruncateLogCall(client_id, low_water_lsn=a, epoch=epoch)
        if mtype == T_FENCE_LOG:
            return FenceLogCall(client_id, epoch=epoch)
        if mtype == T_FENCE_REPLY:
            return FenceReply(client_id, epoch=epoch)
        if mtype == T_TRUNCATE_REPLY:
            return TruncateReply(client_id, low_water_lsn=a,
                                 records_dropped=b)
        if mtype == T_STATS_CALL:
            return StatsCall(client_id)
        if mtype == T_STATS_REPLY:
            if (len(buf) - off) % 8:
                raise WireCodecError("stats body not a multiple of 8")
            return StatsReply(client_id, tuple(
                v for (v,) in struct.iter_unpack("!Q", buf[off:])
            ))
        if mtype == T_GENERATOR_READ_CALL:
            return GeneratorReadCall(client_id)
        if mtype == T_GENERATOR_READ_REPLY:
            return GeneratorReadReply(client_id, (b << 32) | a)
        if mtype == T_GENERATOR_WRITE_CALL:
            return GeneratorWriteCall(client_id, (b << 32) | a)
    except ValueError as exc:
        raise WireCodecError(str(exc)) from exc
    raise WireCodecError(f"unknown message type {mtype}")


# -- stream framing ---------------------------------------------------------


def frame(msg: Message) -> bytes:
    """Length-prefixed frame ready for a stream write."""
    payload = encode(msg)
    return _FRAME_PREFIX.pack(len(payload)) + payload


#: all fixed-size header-only frames are MESSAGE_HEADER_BYTES long.
_HEADER_FRAME_PREFIX = _FRAME_PREFIX.pack(MESSAGE_HEADER_BYTES)


def frame_new_high_lsn(client_id: str, new_high_lsn: int) -> bytes:
    """The NewHighLSN ack, framed, in one pack — the group-commit
    fan-out sends one of these per parked force, so it skips the
    generic ``frame(NewHighLSNMsg(...))`` dispatch.  Byte-identical to
    ``frame(NewHighLSNMsg(client_id, new_high_lsn))``.
    """
    return _HEADER_FRAME_PREFIX + _HEADER.pack(
        MESSAGE_MAGIC, T_NEW_HIGH_LSN, WIRE_VERSION,
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


async def read_message(reader: asyncio.StreamReader) -> Message | None:
    """Read one framed message; ``None`` on clean EOF at a frame edge."""
    try:
        prefix = await reader.readexactly(_FRAME_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireCodecError("stream ended inside a frame prefix") from exc
    (length,) = _FRAME_PREFIX.unpack(prefix)
    if length < MESSAGE_HEADER_BYTES or length > MAX_FRAME_BYTES:
        raise WireCodecError(f"implausible frame length {length}")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireCodecError("stream ended inside a frame") from exc
    return decode(payload)


# -- persistent receive buffers ---------------------------------------------

#: Bytes requested per socket read by :class:`FrameReader` — large
#: enough to swallow many back-to-back frames in one syscall.
RECV_CHUNK_BYTES = 256 * 1024
#: Consumed-prefix size beyond which a :class:`FrameReader` compacts
#: its buffer (sooner if the buffer is fully drained, which is free).
_COMPACT_THRESHOLD = 128 * 1024

#: Most bytes one socket ``recv`` may return (see
#: :func:`bound_socket_reads`): under glibc's 128 KiB ``mmap``
#: threshold, and room for a full ReadLog reply.
SOCKET_READ_BYTES = 96 * 1024

_NEED_MORE = object()


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


class FrameReader:
    """Frame parser over a persistent receive buffer.

    One socket read refills the buffer with up to ``RECV_CHUNK_BYTES``;
    every complete frame already buffered is then parsed without
    touching the socket again, each decoded from a ``memoryview`` slice
    so no per-frame payload copy is made.  This replaces the two
    ``readexactly`` calls (and two allocations) per frame of
    :func:`read_message` on the hot paths of ``rt.server`` and
    ``rt.client``.
    """

    def __init__(self, reader: asyncio.StreamReader, *,
                 max_frame: int = MAX_FRAME_BYTES):
        self._reader = reader
        self._buf = bytearray()
        self._pos = 0
        self._max_frame = max_frame
        self._eof = False
        #: frames parsed since construction (observability / tests)
        self.frames_decoded = 0

    async def read_message(
        self, record_images: list[bytes] | None = None,
    ) -> Message | None:
        """Next framed message; ``None`` on clean EOF at a frame edge.

        ``record_images`` is forwarded to :func:`decode`: the server
        passes a scratch list here to capture each WriteLog/ForceLog
        record's raw wire image for the zero-re-encode append path.
        """
        while True:
            msg = self._parse_one(record_images)
            if msg is not _NEED_MORE:
                return msg
            if self._eof:
                if len(self._buf) - self._pos:
                    raise WireCodecError("stream ended inside a frame")
                return None
            chunk = await self._reader.read(RECV_CHUNK_BYTES)
            if not chunk:
                self._eof = True
            else:
                self._compact()
                self._buf += chunk

    def _parse_one(self, record_images: list[bytes] | None = None):
        buf, pos = self._buf, self._pos
        avail = len(buf) - pos
        if avail < _FRAME_PREFIX.size:
            return _NEED_MORE
        (length,) = _FRAME_PREFIX.unpack_from(buf, pos)
        if length < MESSAGE_HEADER_BYTES or length > self._max_frame:
            raise WireCodecError(f"implausible frame length {length}")
        start = pos + _FRAME_PREFIX.size
        if len(buf) - start < length:
            return _NEED_MORE
        with memoryview(buf) as view:
            msg = decode(view[start:start + length], record_images)
        self._pos = start + length
        self.frames_decoded += 1
        return msg

    def _compact(self) -> None:
        """Drop the consumed prefix once it is worth the memmove."""
        if self._pos and (self._pos >= len(self._buf)
                          or self._pos >= _COMPACT_THRESHOLD):
            del self._buf[:self._pos]
            self._pos = 0

    def close(self) -> None:
        """Drop the receive buffer."""
        self._buf = bytearray()
        self._pos = 0


# -- frame scanning (network fault injection) --------------------------------

#: Bytes of the stream-level length prefix preceding each encoded message.
FRAME_PREFIX_BYTES = _FRAME_PREFIX.size

#: type code → short lowercase kind name: the vocabulary of the
#: ``net.<kind>.<dir>`` fault sites of :mod:`repro.rt.chaosproxy`.
TYPE_NAMES: dict[int, str] = {
    T_WRITE_LOG: "writelog",
    T_FORCE_LOG: "forcelog",
    T_NEW_INTERVAL: "newinterval",
    T_NEW_HIGH_LSN: "newhighlsn",
    T_MISSING_INTERVAL: "missinginterval",
    T_INTERVAL_LIST_CALL: "intervallistcall",
    T_INTERVAL_LIST_REPLY: "intervallistreply",
    T_READ_LOG_FORWARD: "readlogforward",
    T_READ_LOG_BACKWARD: "readlogbackward",
    T_READ_LOG_REPLY: "readlogreply",
    T_COPY_LOG: "copylog",
    T_INSTALL_COPIES: "installcopies",
    T_ACK: "ack",
    T_ERROR: "error",
    T_GENERATOR_READ_CALL: "genreadcall",
    T_GENERATOR_READ_REPLY: "genreadreply",
    T_GENERATOR_WRITE_CALL: "genwritecall",
    T_PING: "ping",
    T_PONG: "pong",
    T_TRUNCATE_LOG: "truncatelog",
    T_TRUNCATE_REPLY: "truncatereply",
    T_STATS_CALL: "statscall",
    T_STATS_REPLY: "statsreply",
    T_FENCE_LOG: "fencelog",
    T_FENCE_REPLY: "fencereply",
}
NAME_TYPES: dict[str, int] = {v: k for k, v in TYPE_NAMES.items()}

#: kinds whose body is a CRC-protected record sequence.  Corrupting
#: their payload is always *detectable* — the receiver rejects the
#: record — unlike e.g. an interval list, whose body bytes carry no
#: checksum of their own (TCP's is the model's integrity layer there).
RECORD_BEARING_KINDS = frozenset(
    {"writelog", "forcelog", "copylog", "readlogreply"})

_SCAN_HEAD = struct.Struct("!HB")  # magic + type, at the header's front


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
    rather than arbitrary 4096-byte windows.  Unlike
    :class:`FrameReader` it never decodes bodies — a relay must forward
    byte-exact images, deliberately corrupted ones included.

    A stream that desynchronizes (an implausible length prefix, a bad
    magic) raises :class:`WireCodecError`; the proxy degrades that
    connection to raw passthrough and lets the endpoint's decoder
    tear it down.
    """

    def __init__(self, *, max_frame: int = MAX_FRAME_BYTES):
        self._buf = bytearray()
        self._max_frame = max_frame
        #: complete frames returned since construction.
        self.frames_scanned = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buf)

    def take_buffer(self) -> bytes:
        """Drain and return the partial buffer (passthrough fallback)."""
        data = bytes(self._buf)
        self._buf.clear()
        return data

    def feed(self, chunk: bytes) -> list[ScannedFrame]:
        """Buffer ``chunk``; return every frame now complete, in order."""
        self._buf += chunk
        buf = self._buf
        frames: list[ScannedFrame] = []
        pos = 0
        while len(buf) - pos >= FRAME_PREFIX_BYTES + _SCAN_HEAD.size:
            (length,) = _FRAME_PREFIX.unpack_from(buf, pos)
            if length < MESSAGE_HEADER_BYTES or length > self._max_frame:
                raise WireCodecError(f"implausible frame length {length}")
            magic, mtype = _SCAN_HEAD.unpack_from(
                buf, pos + FRAME_PREFIX_BYTES)
            if magic != MESSAGE_MAGIC:
                raise WireCodecError(f"bad message magic 0x{magic:04x}")
            total = FRAME_PREFIX_BYTES + length
            if len(buf) - pos < total:
                break
            frames.append(ScannedFrame(bytes(buf[pos:pos + total]), mtype))
            pos += total
        del buf[:pos]
        self.frames_scanned += len(frames)
        return frames
