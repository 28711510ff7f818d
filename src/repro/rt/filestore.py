"""Durable file-backed log-server storage.

One :class:`FileLogStore` is the durable state of one real log-server
daemon: an fsync'd append stream of log entries (``log.dat``) plus a
persisted append-forest index per client (``forest-<client>.idx``),
both crash-recoverable by scan.

The daemon holds an index, not the log.  Memory keeps one fixed-size
:class:`RecordHandle` per retained record — LSN, epoch, present flag,
kind, and the byte offset and length of the record's image in
``log.dat`` — plus the images appended since the last covering fsync
(the only ones a ForceLog normally re-sends); the payloads live on
disk.  The handles sit in the existing
:class:`~repro.core.store.LogServerStore`, which stores them as-is, so
the Section 3.1.1 semantics (write-order rules, duplicate tolerance,
staged CopyLog / atomic InstallCopies, interval lists) are implemented
exactly once; the file layer adds durability and the bytes.  A read
reads the stored image with ``pread`` through one long-lived descriptor and
CRC-verifies it — a ReadLog reply's whole run of images with one
``pread`` sized to the run; replay streams ``log.dat`` in bounded
chunks; and compaction copies retained images from the old file by
offset.

Section 5.3 log space management: :meth:`FileLogStore.truncate_below`
records a per-client truncation point, drops the reclaimed prefix from
the index, and compacts ``log.dat`` by rewriting it from the live
state (tmp file + atomic rename + directory fsync) — a restart
then replays only the retained suffix.  A size watermark
(``compact_watermark_bytes``) triggers the same compaction
automatically so a client that never truncates still gets a bounded
log.  An IO error (disk full) wedges the store read-only: appends
raise :class:`~repro.core.errors.StorageError`, reads keep working.

Append stream
-------------

``log.dat`` is a sequence of entries, each::

    !HB16s — magic, entry type, client id     (19 bytes)

followed by a type-specific payload:

* ``RECORD`` / ``STAGED``: one record in the wire image of
  :func:`repro.net.codec.encode_stored_record` (16-byte header with a
  CRC-32 of the data, then the data) — the on-disk and on-wire record
  bytes are identical;
* ``INSTALL``: ``!II`` — epoch, CRC-32 of the epoch field;
* ``FENCE``: ``!II`` — the client stream's fence epoch, CRC-32 of the
  epoch field (ownership handoff: writes below the fence are refused,
  and the refusal must survive a crash);
* ``GENERATOR``: ``!QI`` — value, CRC-32 of the value field (the
  Appendix I generator-state representative riding on the log server
  node).

Recovery scans the stream from the start, replaying every entry whose
bytes are complete and whose CRC verifies; the first torn or corrupt
entry ends the valid prefix and the file is truncated there.  A record
is therefore durable exactly when the ``fsync`` that covered it
returned — the contract the crash tests assert.

Append-forest index
-------------------

Steady-state appends (each client's strictly increasing LSN stream)
are indexed in an append-forest (Section 4.3) whose nodes live in a
:class:`FilePageStore` — a real-file append-only page store.  The
forest maps LSN → byte offset of the record's entry in ``log.dat``,
giving O(log n) point reads from durable state alone
(:meth:`FileLogStore.read_via_index`).  The index is written buffered:
if a crash loses its tail, recovery rebuilds the missing suffix from
the (authoritative) log scan, so the forest never needs an fsync.
Records re-written below the high-water mark by CopyLog/InstallCopies
are not re-indexed — append forests require strictly increasing keys —
and are reached through their handles instead.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Iterable, Sequence
from pathlib import Path

from ..core.errors import ProtocolError, StorageError
from ..core.intervals import ServerIntervals
from ..core.records import Epoch, LSN, StoredRecord, trusted_stored_record
from ..core.store import LogServerStore
from ..net.codec import (
    RECORD_HEADER_BYTES,
    WireCodecError,
    check_stored_image,
    decode_stored_record,
    encode_stored_record,
)
from ..storage.append_forest import AppendForest, ForestNode
from .faultfs import PassthroughIO

ENTRY_MAGIC = 0x4C45
_ENTRY = struct.Struct("!HB16s")
_INSTALL = struct.Struct("!II")
_GENERATOR = struct.Struct("!QI")
_TRUNCATE = struct.Struct("!II")
_FENCE = struct.Struct("!II")

E_RECORD = 1
E_STAGED = 2
E_INSTALL = 3
E_GENERATOR = 4
#: Section 5.3 low-water mark: every record of the entry's client with
#: a lower LSN has been reclaimed.  Compaction writes one at the head
#: of the rewritten stream so a replay after restart re-arms the
#: late-retransmission guard.
E_TRUNCATE = 5
#: Stream metadata: the log generation (``!QI`` value + CRC, like
#: ``E_GENERATOR``).  Each compaction starts its rewritten stream with
#: the incremented generation; forest index files record the generation
#: they were built against, so a crash anywhere between the compaction
#: rename and the index rebuild leaves forests that are *detectably*
#: stale (discarded and rebuilt from the log scan) instead of silently
#: mapping LSNs to byte offsets in a different stream.
E_META = 6
#: Ownership fence: the entry's client stream refuses any
#: WriteLog/ForceLog/TruncateLog below the stored epoch (``!II`` epoch
#: + CRC, like ``E_INSTALL``).  Durable so a server that crashes and
#: recovers still fences the superseded writer — the linearizable
#: handoff's safety rests on the fence never being forgotten.
E_FENCE = 7

#: injector site name per entry type (``faultfs`` crash-point naming).
_ETYPE_SITES = {
    E_RECORD: "log.write.record",
    E_STAGED: "log.write.staged",
    E_INSTALL: "log.write.install",
    E_GENERATOR: "log.write.generator",
    E_TRUNCATE: "log.write.truncate",
    E_META: "log.write.meta",
    E_FENCE: "log.write.fence",
}

PAGE_MAGIC = 0x4C46
_PAGE = struct.Struct("!HHI")  # magic, payload length, CRC-32(payload)
_NODE = struct.Struct("!IIqqqIHH")  # lo, hi, left, right, forest, min, h, n

FOREST_MAGIC = 0x4C47
_FOREST_HDR = struct.Struct("!HQI")  # magic, generation, CRC-32(!Q gen)


class FileStoreError(Exception):
    """A malformed durable file that is not a recoverable torn tail."""


def _pack_addr(address: int | None) -> int:
    return -1 if address is None else address


def _unpack_addr(value: int) -> int | None:
    return None if value < 0 else value


class FilePageStore:
    """An append-only page store over a real file (forest index pages).

    Satisfies the store interface :class:`AppendForest` needs —
    ``append`` / ``read`` / ``len`` — with :class:`ForestNode` payloads
    serialized one per page.  Pages are cached in memory after the
    opening scan; the file is the durable copy.  A torn final page is
    dropped at open, matching the append-forest durability contract
    ("a torn final page simply yields the forest as of the previous
    append").

    The file starts with a header recording the **log generation** the
    index was built against (see ``E_META``).  A file whose header is
    missing, torn, or from a different generation is discarded whole —
    its byte offsets describe a stream that no longer exists — and the
    owner rebuilds it from the log scan.
    """

    def __init__(self, path: Path, io: PassthroughIO | None = None, *,
                 generation: int = 0):
        self.path = Path(path)
        self.io = io if io is not None else PassthroughIO()
        self.generation = generation
        self._pages: list[ForestNode] = []
        self.appends = 0
        self.reads = 0
        valid = 0
        if self.path.exists():
            raw = self.path.read_bytes()
            offset = None
            if len(raw) >= _FOREST_HDR.size:
                magic, gen, crc = _FOREST_HDR.unpack_from(raw, 0)
                if magic == FOREST_MAGIC and gen == generation \
                        and zlib.crc32(raw[2:2 + 8]) == crc:
                    offset = _FOREST_HDR.size
            if offset is None:
                # Stale generation, torn header, or a pre-generation
                # legacy file: the offsets inside are not trustworthy.
                with open(self.path, "r+b") as fh:
                    fh.truncate(0)
            else:
                valid = offset
                while offset + _PAGE.size <= len(raw):
                    magic, plen, crc = _PAGE.unpack_from(raw, offset)
                    body = raw[offset + _PAGE.size:offset + _PAGE.size + plen]
                    if magic != PAGE_MAGIC or len(body) != plen \
                            or zlib.crc32(body) != crc:
                        break
                    self._pages.append(self._decode_node(body))
                    offset += _PAGE.size + plen
                    valid = offset
                if valid < len(raw):
                    with open(self.path, "r+b") as fh:
                        fh.truncate(valid)
        self._file = self.io.open(self.path, "ab", "forest.open")
        if valid == 0:
            gen_bytes = struct.pack("!Q", generation)
            self.io.write(
                self._file,
                _FOREST_HDR.pack(FOREST_MAGIC, generation,
                                 zlib.crc32(gen_bytes)),
                "forest.write",
            )

    @staticmethod
    def _encode_node(node: ForestNode) -> bytes:
        head = _NODE.pack(
            node.lo, node.hi, _pack_addr(node.left), _pack_addr(node.right),
            _pack_addr(node.forest), node.tree_min, node.height,
            len(node.entries),
        )
        return head + struct.pack(f"!{len(node.entries)}Q", *node.entries)

    @staticmethod
    def _decode_node(body: bytes) -> ForestNode:
        lo, hi, left, right, forest, tree_min, height, n = \
            _NODE.unpack_from(body, 0)
        entries = struct.unpack_from(f"!{n}Q", body, _NODE.size)
        return ForestNode(
            lo=lo, hi=hi, entries=entries, left=_unpack_addr(left),
            right=_unpack_addr(right), forest=_unpack_addr(forest),
            tree_min=tree_min, height=height,
        )

    def append(self, payload: ForestNode) -> int:
        body = self._encode_node(payload)
        page = _PAGE.pack(PAGE_MAGIC, len(body), zlib.crc32(body)) + body
        self.io.write(self._file, page, "forest.write")
        self._pages.append(payload)
        self.appends += 1
        return len(self._pages) - 1

    def read(self, address: int) -> ForestNode:
        self.reads += 1
        return self._pages[address]

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def next_address(self) -> int:
        return len(self._pages)

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()


def _client_file_tag(client_id: str) -> str:
    """A filesystem-safe tag for per-client index files."""
    return client_id.encode("utf-8").hex()


#: a record image is a 16-byte header plus at most 2**16 - 1 data bytes.
_LENGTH_BITS = 17
_LENGTH_MASK = (1 << _LENGTH_BITS) - 1

#: alignment and unit of reads from ``log.dat`` (a power of two).
_READ_BLOCK_BYTES = 4096

#: the most bytes appended to ``log.dat`` whose record images the
#: unsynced tail may cache.  The tail is only a cache — anything
#: dropped from it is read back from ``log.dat`` — so a client that
#: streams WriteLogs and never forces costs the daemon this much
#: memory, not its whole stream.  A ForceLog's window is far below it
#: (``bulk_stream`` appends 32 KiB per fsync).
TAIL_CACHE_BYTES = 1024 * 1024


class RecordHandle:
    """What the daemon keeps in memory per stored record — no payload.

    ``offset`` is where the record's entry starts in ``log.dat`` and
    ``length`` the size of its image (record header + data) there; the
    two share one integer, so a handle costs the same whatever the
    record's size.  Duck-types
    :class:`~repro.core.records.StoredRecord` for
    :class:`~repro.core.store.ClientLogState`, which stores it as-is
    and reads ``data`` only on the duplicate check — that fetches the
    bytes back through the owning store.
    """

    __slots__ = ("_store", "lsn", "epoch", "present", "kind", "_extent")

    def __init__(self, store: "FileLogStore", record: StoredRecord,
                 offset: int, length: int):
        self._store = store
        self.lsn = record.lsn
        self.epoch = record.epoch
        self.present = record.present
        self.kind = record.kind
        self._extent = offset << _LENGTH_BITS | length

    @property
    def offset(self) -> int:
        return self._extent >> _LENGTH_BITS

    @offset.setter
    def offset(self, offset: int) -> None:
        self._extent = offset << _LENGTH_BITS | self.length

    @property
    def length(self) -> int:
        return self._extent & _LENGTH_MASK

    @property
    def data(self) -> bytes:
        return self._store._data(self)


class FileLogStore:
    """Durable state of one real log-server node.

    All mutating operations append to ``log.dat`` and index what they
    appended in :attr:`mem`, a :class:`LogServerStore` of
    :class:`RecordHandle` objects; acknowledgments are sent only after the
    append (and, for forces and installs, its ``fsync``) returns.
    Reopening the same ``data_dir`` recovers the durable prefix by scan.
    """

    #: bytes read per ``pread`` while replaying ``log.dat`` at open.
    replay_chunk_bytes = 256 * 1024

    def __init__(self, data_dir: str | Path, server_id: str, *,
                 compact_watermark_bytes: int | None = None,
                 io: PassthroughIO | None = None):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: the storage I/O backend every mutating call goes through
        #: (:class:`~repro.rt.faultfs.PassthroughIO` by default, a
        #: :class:`~repro.rt.faultfs.FaultInjector` under crashsweep).
        self.io = io if io is not None else PassthroughIO()
        self.server_id = server_id
        self.mem = LogServerStore(server_id)
        self.generator_value = 0
        #: client id → standing fence epoch (ownership handoff);
        #: populated by replay, advanced only monotonically.
        self.fence_epochs: dict[str, int] = {}
        #: WriteLog/ForceLog/TruncateLog calls refused below a fence.
        self.fence_rejections = 0
        #: size watermark fallback (Section 5.3): when ``log.dat``
        #: exceeds this many bytes, the stream is compacted against the
        #: clients' declared low-water marks without waiting for the
        #: next TruncateLog.  ``None`` disables the fallback.
        self.compact_watermark_bytes = compact_watermark_bytes
        self._forests: dict[str, AppendForest] = {}
        self._log_path = self.data_dir / "log.dat"
        self.recovered_entries = 0
        self.truncated_bytes = 0
        # Counters for the Stats wire message.
        self.bytes_appended = 0
        #: log-file fsyncs issued (per-entry syncs and group syncs both).
        self.fsyncs = 0
        #: records presented for append (duplicates included — the
        #: covering fsync promises durability for them all the same).
        self.records_appended = 0
        self.truncations = 0
        self.compactions = 0
        self.reclaimed_bytes = 0
        self.storage_errors = 0
        #: complete-but-corrupt entries rejected by CRC during recovery
        #: (torn tails are not corruption and are counted separately),
        #: plus stored images that failed theirs when read back.
        self.crc_rejections = 0
        #: bumped by every compaction; ties forest index files to the
        #: log stream they index (see ``E_META``).
        self.log_generation = 0
        #: first storage failure observed; non-None wedges all appends
        #: (the daemon degrades to read-only rather than lying about
        #: durability).
        self.io_error: str | None = None
        self._last_compact_size = 0
        #: handle → image of every record appended since the last
        #: covering fsync: what a ForceLog re-sends is compared against
        #: these in memory, and reads of them need no flush.
        self._tail: dict[RecordHandle, bytes] = {}
        #: client id → how many times the stream's stored records have
        #: changed under this open store (:meth:`stream_version`).
        self._versions: dict[str, int] = {}
        existed = self._log_path.exists()
        #: the one descriptor reads, replay and compaction read through.
        self._reader = (open(self._log_path, "rb", buffering=0)
                        if existed else None)
        #: the last aligned block :meth:`_read` fetched, and its offset.
        self._block = b""
        self._block_base = 0
        self._size = self._recover()
        #: how much of ``log.dat`` the OS has; the rest of ``_size`` is
        #: still in the append handle's buffer.
        self._flushed = self._size
        #: the size of ``log.dat`` when the tail was last emptied: what
        #: has been appended since bounds the image bytes it caches.
        self._tail_start = self._size
        self._file = self.io.open(self._log_path, "ab", "log.open")
        if not existed:
            # A freshly created log.dat is not durable until its
            # directory entry is: without this barrier, power loss
            # after the first acked fsync could drop the whole file.
            self.io.fsync_dir(self.data_dir, "dir.create-sync")
            self._reader = open(self._log_path, "rb", buffering=0)

    # -- recovery -----------------------------------------------------

    def _recover(self) -> int:
        """Replay the valid prefix of ``log.dat``; return its length.

        The file is streamed :attr:`replay_chunk_bytes` at a time (an
        entry larger than that is read whole): ``buf`` holds the bytes
        from file offset ``base`` on and ``pos`` walks it.
        """
        if self._reader is None:
            return 0
        fd = self._reader.fileno()
        # nothing is buffered yet: a read-back during replay (the
        # duplicate check on a repeated entry) goes straight to disk
        file_size = self._flushed = os.fstat(fd).st_size
        buf = b""
        base = pos = 0
        while True:
            parsed = self._parse_entry(buf, pos)
            if isinstance(parsed, int):
                # ``buf`` ends inside the entry: read on, or — at the
                # end of the file — stop at an ordinary torn tail.
                chunk = os.pread(
                    fd, max(self.replay_chunk_bytes,
                            parsed - (len(buf) - pos)), base + len(buf))
                if not chunk:
                    break
                buf = buf[pos:] + chunk
                base += pos
                pos = 0
                continue
            if parsed is None:
                break
            etype, client_id, payload, next_pos = parsed
            offset = base + pos
            try:
                if etype == E_RECORD:
                    self.mem.server_write_record(client_id, RecordHandle(
                        self, payload, offset,
                        next_pos - pos - _ENTRY.size))
                    # Index whatever steady-state suffix the buffered
                    # forest file lost.  (No mark replayed later can
                    # cover this record: ``truncate_below`` compacts
                    # whenever it drops anything.)
                    forest = self._forest(client_id)
                    if payload.lsn > (forest.high_key or 0):
                        forest.append_key(payload.lsn, offset)
                elif etype == E_STAGED:
                    self.mem.copy_record(client_id, RecordHandle(
                        self, payload, offset,
                        next_pos - pos - _ENTRY.size))
                elif etype == E_INSTALL:
                    self.mem.install_copies(client_id, payload)
                elif etype == E_TRUNCATE:
                    self.mem.truncate_below(client_id, payload)
                elif etype == E_META:
                    self.log_generation = max(self.log_generation, payload)
                elif etype == E_FENCE:
                    self.fence_epochs[client_id] = max(
                        self.fence_epochs.get(client_id, 0), payload
                    )
                else:  # E_GENERATOR
                    self.generator_value = max(self.generator_value, payload)
            except ProtocolError:
                # The entry decoded but cannot have been written by this
                # store (e.g. "epoch went backwards").  The record CRC
                # now spans the header too, so this is defense in depth;
                # it was first hit for real when a header bit flip
                # slipped past the old data-only CRC and the restart
                # died on the ProtocolError (``repro crashsweep``,
                # compact.write:3:bit-flip).  Corruption ends the valid
                # prefix; recovery keeps what precedes it.
                self.crc_rejections += 1
                break
            self.recovered_entries += 1
            pos = next_pos
        valid = base + pos
        if valid < file_size:
            self.truncated_bytes = file_size - valid
            os.truncate(self._log_path, valid)
            # a read-back above may have kept a block reaching into
            # the bytes just cut off, where new appends will land
            self._block = b""
        return valid

    def _parse_entry(
        self, raw: bytes, offset: int
    ) -> tuple[int, str, object, int] | int | None:
        """Parse the entry at ``offset`` of ``raw``.

        Returns ``(etype, client_id, payload, end)``; or an ``int`` —
        how many bytes the entry takes from ``offset``, as far as its
        head tells — when ``raw`` ends before that; or ``None`` when
        the bytes cannot be an entry.

        An entry whose bytes are all present but whose CRC does not
        verify is *corruption* (e.g. an injected bit flip), counted in
        ``crc_rejections``; an incomplete entry is an ordinary torn
        tail and is not.
        """
        have = len(raw) - offset
        if have < _ENTRY.size:
            return _ENTRY.size
        magic, etype, cid_raw = _ENTRY.unpack_from(raw, offset)
        if magic != ENTRY_MAGIC:
            return None
        body = offset + _ENTRY.size
        try:
            client_id = cid_raw.rstrip(b"\x00").decode("utf-8")
        except UnicodeDecodeError:
            self.crc_rejections += 1
            return None
        if etype in (E_RECORD, E_STAGED):
            try:
                record, end = decode_stored_record(raw, body)
            except WireCodecError:
                need = _ENTRY.size + RECORD_HEADER_BYTES
                if have >= need:
                    (dlen,) = struct.unpack_from("!H", raw, body + 10)
                    need += dlen
                if have < need:
                    return need
                self.crc_rejections += 1
                return None
            return etype, client_id, record, end
        if etype in (E_INSTALL, E_TRUNCATE, E_FENCE):
            if have < _ENTRY.size + _INSTALL.size:
                return _ENTRY.size + _INSTALL.size
            value, crc = _INSTALL.unpack_from(raw, body)
            if zlib.crc32(raw[body:body + 4]) != crc:
                self.crc_rejections += 1
                return None
            return etype, client_id, value, body + _INSTALL.size
        if etype in (E_GENERATOR, E_META):
            if have < _ENTRY.size + _GENERATOR.size:
                return _ENTRY.size + _GENERATOR.size
            value, crc = _GENERATOR.unpack_from(raw, body)
            if zlib.crc32(raw[body:body + 8]) != crc:
                self.crc_rejections += 1
                return None
            return etype, client_id, value, body + _GENERATOR.size
        return None

    # -- the durable append path --------------------------------------

    def _wedge(self, exc: OSError) -> StorageError:
        """Record the first storage failure; wedge all later appends."""
        self.storage_errors += 1
        if self.io_error is None:
            self.io_error = str(exc) or type(exc).__name__
        return StorageError(
            f"storage failed on {self.server_id}: {self.io_error}"
        )

    def _check_writable(self) -> None:
        if self.io_error is not None:
            raise StorageError(
                f"storage failed on {self.server_id}: {self.io_error}"
            )

    def _append_entry(self, etype: int, client_id: str, payload: bytes,
                      fsync: bool) -> int:
        cid_raw = client_id.encode("utf-8")
        if len(cid_raw) > 16:
            raise FileStoreError(f"client id {client_id!r} exceeds 16 bytes")
        self._check_writable()
        offset = self._size
        buf = _ENTRY.pack(ENTRY_MAGIC, etype, cid_raw) + payload
        try:
            self.io.write(self._file, buf, _ETYPE_SITES[etype])
            if fsync:
                self.io.fsync(self._file, "log.fsync")
                self.fsyncs += 1
        except OSError as exc:
            raise self._wedge(exc) from exc
        self._size += len(buf)
        self.bytes_appended += len(buf)
        if fsync:
            self._covered()
        return offset

    def _covered(self) -> None:
        """The OS has all of ``log.dat`` — an fsync returned, or the
        append buffer was flushed — so no image needs caching."""
        self._flushed = self._tail_start = self._size
        self._tail.clear()

    def _admit(self, client_id: str, record: StoredRecord, image: bytes,
               offset: int) -> bool:
        """Index ``record``, whose entry will start at ``offset``.

        The Section 3.1.1 rules run in :attr:`mem` on the handle, so a
        protocol violation raises before any byte is written; ``False``
        means a duplicate retransmission, dropped without a write.  The
        image joins the unsynced tail first: the duplicate check reads
        the handle's ``data`` from there.
        """
        handle = RecordHandle(self, record, offset, len(image))
        tail = self._tail
        tail[handle] = image
        stored = False
        try:
            stored = self.mem.server_write_record(client_id, handle)
        finally:
            if not stored:
                del tail[handle]
        return stored

    def append_record(self, client_id: str, record: StoredRecord, *,
                      fsync: bool) -> None:
        """ServerWriteLog, durably: :meth:`append_records` of one."""
        self.append_records(client_id, (record,), fsync=fsync)

    def append_records(self, client_id: str,
                       records: tuple[StoredRecord, ...], *,
                       fsync: bool,
                       images: "Sequence[bytes] | None" = None) -> None:
        """Append a batch; one :meth:`sync` covers the whole batch.

        The whole batch becomes **one** buffered write (crash point
        ``log.write.record``, same as before — a torn multi-entry write
        truncates to the last complete entry on recovery, and none of
        the batch was acknowledged).  ``images`` optionally carries the
        raw wire image per record (from :func:`repro.net.codec.decode`)
        so the hot path never re-encodes; each image is byte-compatible
        with ``encode_stored_record``.

        The sync is unconditional even when every record was a
        duplicate retransmission: the originals may have arrived in
        unsynced WriteLogs, and the ForceLog ack promises durability.
        """
        cid_raw = client_id.encode("utf-8")
        if len(cid_raw) > 16:
            raise FileStoreError(f"client id {client_id!r} exceeds 16 bytes")
        header = _ENTRY.pack(ENTRY_MAGIC, E_RECORD, cid_raw)
        buf = bytearray()
        pending: list[tuple[LSN, int]] = []  # (lsn, entry offset)
        try:
            for i, record in enumerate(records):
                self.records_appended += 1
                image = (images[i] if images is not None
                         else encode_stored_record(record))
                offset = self._size + len(buf)
                # A protocol violation leaves the durable stream with
                # exactly the records admitted before it.
                if not self._admit(client_id, record, image, offset):
                    continue
                pending.append((record.lsn, offset))
                buf += header
                buf += image
        finally:
            # Flush whatever was admitted before a mid-batch protocol
            # error: the index already holds those records, and it
            # must never run ahead of the durable stream.
            if buf:
                self._flush_record_batch(bytes(buf), client_id, pending)
        if fsync:
            self.sync()
        self._maybe_compact()

    def _flush_record_batch(self, buf: bytes, client_id: str,
                            pending: list[tuple[LSN, int]]) -> None:
        """One buffered write + one forest node for a validated batch."""
        self._changed(client_id)  # the index already holds the batch
        self._check_writable()
        try:
            self.io.write(self._file, buf, "log.write.record")
            self._size += len(buf)
            self.bytes_appended += len(buf)
            if self._size - self._tail_start > TAIL_CACHE_BYTES:
                # Nobody forces: hand the buffered bytes to the OS and
                # stop caching their images; _read serves them now.
                self._file.flush()
                self._covered()
        except OSError as exc:
            raise self._wedge(exc) from exc
        forest = self._forest(client_id)
        high = forest.high_key or 0
        fresh = [(lsn, off) for lsn, off in pending if lsn > high]
        if not fresh:
            return
        try:
            lo, hi = fresh[0][0], fresh[-1][0]
            if hi - lo + 1 == len(fresh):
                # Consecutive batch LSNs: one multi-key node indexes
                # the whole group instead of one node per record.
                forest.append(lo, hi, tuple(off for _, off in fresh))
            else:
                for lsn, off in fresh:
                    forest.append_key(lsn, off)
        except OSError as exc:
            # The index is advisory (rebuilt from the log on recovery),
            # but a failing disk should wedge appends all the same.
            raise self._wedge(exc) from exc

    def sync(self, *, site: str = "log.fsync") -> None:
        """Make everything appended so far durable (flush + fsync).

        ``site`` names the fault-injection crash point charged for the
        fsync; the server's shared group commit passes
        ``"log.group-fsync"`` so power loss inside a sync that covers
        several parked clients is its own swept crash point.
        """
        self._check_writable()
        try:
            self.io.fsync(self._file, site)
        except OSError as exc:
            raise self._wedge(exc) from exc
        self.fsyncs += 1
        self._covered()

    def stage_copy(self, client_id: str, record: StoredRecord) -> None:
        """CopyLog: durably stage a rewrite (installed atomically later)."""
        image = encode_stored_record(record)
        self.mem.copy_record(client_id, RecordHandle(
            self, record, self._size, len(image)))
        self._append_entry(E_STAGED, client_id, image, fsync=False)

    def install_copies(self, client_id: str, epoch: Epoch) -> int:
        """InstallCopies: the install marker is the durable commit point."""
        epoch_bytes = struct.pack("!I", epoch)
        self._append_entry(
            E_INSTALL, client_id,
            _INSTALL.pack(epoch, zlib.crc32(epoch_bytes)), fsync=True,
        )
        self._changed(client_id)
        return self.mem.install_copies(client_id, epoch)

    def generator_write(self, value: int) -> None:
        """Durably advance the Appendix I generator representative."""
        if value > self.generator_value:
            value_bytes = struct.pack("!Q", value)
            self._append_entry(
                E_GENERATOR, "", _GENERATOR.pack(value, zlib.crc32(value_bytes)),
                fsync=True,
            )
            self.generator_value = value

    # -- ownership fencing --------------------------------------------

    def fence_epoch(self, client_id: str) -> int:
        """The stream's standing fence epoch (0 = never fenced)."""
        return self.fence_epochs.get(client_id, 0)

    def fence_write(self, client_id: str, epoch: int) -> int:
        """Durably install ``epoch`` as the stream's fence; return the
        standing fence.

        Monotone like :meth:`generator_write`: a fence at or below the
        standing one writes nothing (two racing takeovers linearize on
        the generator's epoch order — the higher fence wins and the
        lower one is told so).  The entry is fsync'd before the call
        returns: a fence that is acknowledged must survive a crash, or
        the old writer could commit through a recovered server.
        """
        standing = self.fence_epochs.get(client_id, 0)
        if epoch > standing:
            epoch_bytes = struct.pack("!I", epoch)
            self._append_entry(
                E_FENCE, client_id,
                _FENCE.pack(epoch, zlib.crc32(epoch_bytes)), fsync=True,
            )
            self.fence_epochs[client_id] = epoch
            standing = epoch
        return standing

    # -- Section 5.3: log space management ------------------------------

    def truncate_below(self, client_id: str, low_water: LSN) -> int:
        """TruncateLog: reclaim a client's records below ``low_water``.

        Drops their handles from the index and compacts the append stream so the on-disk log shrinks
        too.  Returns the number of records dropped.  The mark is
        durable: either the compacted stream simply no longer contains
        the records, or — when nothing was stored below the mark — an
        ``E_TRUNCATE`` entry re-arms the late-retransmission guard on
        replay.
        """
        self._check_writable()
        self._changed(client_id)
        dropped = self.mem.truncate_below(client_id, low_water)
        self.truncations += 1
        if dropped:
            self._compact()
        else:
            mark = self.truncated_lsn(client_id)
            if mark:
                mark_bytes = struct.pack("!I", mark)
                self._append_entry(
                    E_TRUNCATE, client_id,
                    _TRUNCATE.pack(mark, zlib.crc32(mark_bytes)), fsync=True,
                )
        return dropped

    def truncated_lsn(self, client_id: str) -> LSN:
        """The client's applied low-water mark (0 = never truncated)."""
        state = self.mem.find_client(client_id)
        return state.truncated_below if state is not None else 0

    def _maybe_compact(self) -> None:
        """The size-watermark fallback: compact when the log outgrows
        ``compact_watermark_bytes``, using whatever low-water marks the
        clients have already declared.

        A compaction that reclaims little would immediately re-trigger,
        so another pass is deferred until the file doubles past the
        last compacted size.
        """
        wm = self.compact_watermark_bytes
        if wm is None or self._size < wm or self.io_error is not None:
            return
        if self._size < 2 * self._last_compact_size:
            return
        self._compact()

    def _compact(self) -> None:
        """Rewrite ``log.dat`` as a checkpoint of the live state.

        The compacted stream carries every standing fence epoch, then,
        per client: the truncation mark, every retained record in write
        order (a subsequence of a legally ordered stream is legally
        ordered), and any staged-but-uninstalled CopyLog records; plus
        the generator value.  Install
        markers are not rewritten — installed copies are already
        materialized as records.  Replaying the compacted stream
        reconstructs the exact same index.

        Record images are copied from the old file by offset, each
        CRC-verified on the way: a corrupt one aborts the compaction
        rather than being carried into a stream whose replay would end
        at it.  The rewrite goes to ``log.dat.tmp`` (fsync'd), then
        atomically replaces ``log.dat``; only then do the handles and
        the read descriptor move to the new file (until then, and if
        the swap fails, both still address the old one), and the
        append-forest index files are rebuilt against the new byte
        offsets.  The rewritten stream opens with an ``E_META`` entry
        carrying the incremented log generation, so index files built
        against the old stream can never be mistaken for current (see
        :class:`FilePageStore`).
        """
        self._check_writable()
        tmp_path = Path(str(self._log_path) + ".tmp")
        moved: list[tuple[RecordHandle, int]] = []
        size = 0
        generation = self.log_generation + 1
        try:
            out = self.io.open(tmp_path, "wb", "compact.open")
            try:
                def emit(etype: int, cid: str, payload: bytes) -> int:
                    nonlocal size
                    offset = size
                    buf = _ENTRY.pack(ENTRY_MAGIC, etype,
                                      cid.encode("utf-8")) + payload
                    self.io.write(out, buf, "compact.write")
                    size += len(buf)
                    return offset

                gen_bytes = struct.pack("!Q", generation)
                emit(E_META, "",
                     _GENERATOR.pack(generation, zlib.crc32(gen_bytes)))
                for cid in sorted(self.fence_epochs):
                    fence = self.fence_epochs[cid]
                    fence_bytes = struct.pack("!I", fence)
                    emit(E_FENCE, cid,
                         _FENCE.pack(fence, zlib.crc32(fence_bytes)))
                for client_id in self.mem.known_clients():
                    state = self.mem.client_state(client_id)
                    if state.truncated_below:
                        mark = state.truncated_below
                        mark_bytes = struct.pack("!I", mark)
                        emit(E_TRUNCATE, client_id,
                             _TRUNCATE.pack(mark, zlib.crc32(mark_bytes)))
                    for handle in state.records:
                        moved.append((handle, emit(
                            E_RECORD, client_id, self._load(handle)[1])))
                    for epoch in sorted(state.staged):
                        for handle in state.staged[epoch]:
                            moved.append((handle, emit(
                                E_STAGED, client_id, self._load(handle)[1])))
                if self.generator_value:
                    value_bytes = struct.pack("!Q", self.generator_value)
                    emit(E_GENERATOR, "",
                         _GENERATOR.pack(self.generator_value,
                                         zlib.crc32(value_bytes)))
                self.io.fsync(out, "compact.fsync")
            finally:
                out.close()
            old_size = self._size
            self._file.close()
            self._flushed = old_size
            self.io.replace(tmp_path, self._log_path, "compact.rename")
            self._file = self.io.open(self._log_path, "ab", "compact.reopen")
            self.io.fsync_dir(self.data_dir, "compact.dirsync")
            reader = open(self._log_path, "rb", buffering=0)
        except OSError as exc:
            if self._file.closed:
                # The store wedges read-only, but the final close still
                # goes through ``self._file``: restore a usable handle
                # on whatever log.dat survived.
                try:
                    self._file = self.io.open(self._log_path, "ab",
                                              "log.open")
                except OSError:
                    pass
            raise self._wedge(exc) from exc
        self._reader.close()
        self._reader = reader
        self._block = b""
        for handle, offset in moved:
            handle.offset = offset
        self.log_generation = generation
        self._size = size
        self._covered()
        self._last_compact_size = size
        self.compactions += 1
        self.reclaimed_bytes += max(0, old_size - size)
        self._rebuild_forests()

    def _rebuild_forests(self) -> None:
        """Recreate every forest index against post-compaction offsets."""
        for forest in self._forests.values():
            forest.store.close()
        self._forests = {}
        try:
            for path in self.data_dir.glob("forest-*.idx"):
                self.io.unlink(path, "forest.unlink")
            for client_id in self.mem.known_clients():
                records = self.mem.client_state(client_id).records
                if not records:
                    continue
                forest = self._forest(client_id)
                high = 0
                for handle in records:
                    if handle.lsn > high:
                        forest.append_key(handle.lsn, handle.offset)
                        high = handle.lsn
        except OSError as exc:
            # The index is advisory (rebuilt from the log scan on
            # recovery), but a failing disk wedges appends all the same.
            raise self._wedge(exc) from exc

    # -- reads --------------------------------------------------------

    def interval_list(self, client_id: str) -> ServerIntervals:
        state = self.mem.find_client(client_id)
        return ServerIntervals(
            self.server_id, state.intervals() if state is not None else ())

    def read_record(self, client_id: str, lsn: LSN,
                    images: list[bytes] | None = None) -> StoredRecord:
        """ServerReadLog: the highest-epoch record stored under ``lsn``.

        ``images``, when given, collects the stored image the record
        came from — the bytes :func:`repro.net.codec.frame_iov` takes
        as ``record_bufs``, so a ReadLog reply is framed without
        re-encoding.
        """
        record, image = self._load(self.mem.server_read_log(client_id, lsn))
        if images is not None:
            images.append(image)
        return record

    def read_run(self, client_id: str, lsns: Iterable[LSN], budget: int,
                 images: list[bytes]) -> list[StoredRecord]:
        """What a ReadLog reply carries: :meth:`read_record` of each of
        ``lsns`` (stored LSNs of the client) in turn, their images
        collected in ``images``.

        The first record goes whatever its size, the rest while the
        images stay within ``budget`` bytes; the one that does not fit
        is judged by its indexed length and never read.  A record whose
        image fails its check ends the run before it — the good
        records ahead of it still go — unless it is the first, which is
        a :class:`~repro.core.errors.StorageError`: the call that
        *starts* at a rotten record is the one that reports it.
        """
        state = self.mem.find_client(client_id)
        run: list[RecordHandle] = []
        run_bytes = 0
        for lsn in lsns:
            handle = state.lookup(lsn)
            length = handle.length
            if run and length > budget:
                break
            run.append(handle)
            budget -= length
            run_bytes += _ENTRY.size + length
        if not run:
            return []
        # A run appended in order (scanned either way) lies in one
        # stretch of log.dat: read it with one pread, which _read
        # keeps, instead of one block per dozen records.  Not when it
        # is scattered over more than twice its own bytes (rewritten by
        # a later epoch, interleaved with many streams), nor when it
        # reaches into the unsynced tail, which is served from memory.
        first, last = sorted((run[0], run[-1]), key=lambda h: h.offset)
        if first not in self._tail and last not in self._tail:
            span = last.offset + _ENTRY.size + last.length - first.offset
            if span <= 2 * run_bytes:
                self._read(first.offset, span)
        records: list[StoredRecord] = []
        for handle in run:
            try:
                records.append(self.read_record(client_id, handle.lsn,
                                                images))
            except StorageError:
                if not records:
                    raise
                break
        return records

    def _read(self, offset: int, length: int) -> bytes:
        """``length`` bytes of ``log.dat`` at ``offset``, through the one
        read descriptor.

        Reads go by whole aligned blocks and the last stretch read is
        kept, so neighbouring records — one ReadLog reply (which
        :meth:`read_run` fetches whole), a scan, a compaction — share
        a ``pread`` (a syscall per record cost a scan more than the
        CRCs did).  ``log.dat`` only grows, so what is kept is never
        stale, only short.  The append buffer is flushed only when the
        extent lies beyond what the OS has.
        """
        start = offset - self._block_base
        if 0 <= start and start + length <= len(self._block):
            return self._block[start:start + length]
        try:
            if offset + length > self._flushed:
                self._file.flush()
                self._flushed = self._size
            base = offset & -_READ_BLOCK_BYTES
            end = (offset + length + _READ_BLOCK_BYTES - 1) \
                & -_READ_BLOCK_BYTES
            self._block = os.pread(self._reader.fileno(), end - base, base)
            self._block_base = base
        except OSError as exc:
            raise self._wedge(exc) from exc
        return self._block[offset - base:offset - base + length]

    def _unreadable(self, exc: WireCodecError) -> StorageError:
        """A stored image failed its check (a byte rotted under the
        live store): a storage error for that record only."""
        self.crc_rejections += 1
        return StorageError(
            f"stored record unreadable on {self.server_id}: {exc}")

    def _load(self, handle: RecordHandle) -> tuple[StoredRecord, bytes]:
        """The record ``handle`` points at, and its stored image —
        CRC-verified, and checked to be the ⟨LSN, epoch⟩ indexed."""
        image = self._tail.get(handle)
        if image is None:
            extent = handle._extent  # offset and length in one load
            image = self._read((extent >> _LENGTH_BITS) + _ENTRY.size,
                               extent & _LENGTH_MASK)
        try:
            data = check_stored_image(image, handle.lsn, handle.epoch)
        except WireCodecError as exc:
            raise self._unreadable(exc) from exc
        return trusted_stored_record(handle.lsn, handle.epoch,
                                     handle.present, data,
                                     handle.kind), image

    def _data(self, handle: RecordHandle) -> bytes:
        """A handle's payload, for the exact-bytes duplicate check:
        from the unsynced tail when the record is still there (what a
        ForceLog re-sends normally is), else read back and verified."""
        image = self._tail.get(handle)
        if image is not None:
            return image[RECORD_HEADER_BYTES:]
        return self._load(handle)[0].data

    def stored_lsns(self, client_id: str) -> list[LSN]:
        """All LSNs stored for a client, ascending (for ReadLog packing).

        This is the stream's maintained index itself
        (:attr:`~repro.core.store.ClientLogState.lsns`), not a copy:
        the daemon asks for it on every ReadLog call, so it must cost
        the same however much log is retained.  Callers only read it.
        """
        state = self.mem.find_client(client_id)
        return state.lsns if state is not None else []

    def client_high_lsn(self, client_id: str) -> LSN | None:
        state = self.mem.find_client(client_id)
        return state.high_lsn if state is not None else None

    def stream_version(self, client_id: str) -> int:
        """Moves whenever what a ReadLog of the client's stream would
        answer may have: an admitted append batch, an InstallCopies, a
        truncation.  An answer built at one version is the answer for
        as long as the version stands (0 for a stream never changed
        under this open store — asking allocates nothing)."""
        return self._versions.get(client_id, 0)

    def _changed(self, client_id: str) -> None:
        self._versions[client_id] = self._versions.get(client_id, 0) + 1

    @property
    def log_size_bytes(self) -> int:
        """Current size of ``log.dat`` in bytes."""
        return self._size

    def record_count(self) -> int:
        """Records retained, i.e. handles held — what the daemon's
        resident index is proportional to, whatever the payload size."""
        return self.mem.record_count()

    def read_via_index(self, client_id: str, lsn: LSN) -> StoredRecord | None:
        """Point read through the durable path alone: forest → file.

        Returns ``None`` when the LSN is not in the forest (never
        appended, or re-written below the high-water mark and so reached
        through its handle instead).

        A rewrite is detected by epoch: InstallCopies replaces a record
        *in place* in the handle index, but the forest — append-only,
        strictly increasing keys — still maps the LSN to the original
        append.  Found by ``repro crashsweep`` (crash point
        ``log.write.record:25``, any later restart): the index served
        the superseded pre-install record.  The next compaction
        re-indexes the winning copy and the entry becomes valid again.
        """
        forest = self._forests.get(client_id)
        if forest is None:
            return None
        try:
            body = forest.search(lsn) + _ENTRY.size
        except KeyError:
            return None
        header = self._read(body, RECORD_HEADER_BYTES)
        (dlen,) = struct.unpack_from("!H", header, 10)
        try:
            record, _ = decode_stored_record(
                header + self._read(body + RECORD_HEADER_BYTES, dlen), 0)
        except WireCodecError as exc:
            raise self._unreadable(exc) from exc
        current = self.mem.client_state(client_id).lookup(lsn)
        if current is not None and current.epoch != record.epoch:
            return None  # stale index entry: the record was re-written
        return record

    def forest(self, client_id: str) -> AppendForest | None:
        """The client's index forest (for tests and diagnostics)."""
        return self._forests.get(client_id)

    def _forest(self, client_id: str) -> AppendForest:
        forest = self._forests.get(client_id)
        if forest is None:
            path = self.data_dir / f"forest-{_client_file_tag(client_id)}.idx"
            forest = AppendForest(FilePageStore(
                path, self.io, generation=self.log_generation
            ))
            forest.rebuild_from_store()
            self._forests[client_id] = forest
        return forest

    # -- lifecycle ----------------------------------------------------

    @property
    def injected_faults(self) -> int:
        """Faults the I/O backend injected (0 under the passthrough)."""
        return self.io.faults_injected

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._flushed = self._size
        for forest in self._forests.values():
            forest.store.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        self._reader.close()
        for forest in self._forests.values():
            forest.store.close()
