"""Durable file-backed log-server storage.

One :class:`FileLogStore` is the durable state of one real log-server
daemon: an fsync'd append stream of log entries (``log.dat``),
crash-recoverable by scan.  It is the only file the store reads or
writes.

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
offset.  Reads, the duplicate check and replay all go through this
handle index alone: it is rebuilt by the replay that open does anyway,
so nothing beside ``log.dat`` needs to be kept durable.

Section 5.3 log space management: :meth:`FileLogStore.truncate_below`
records a per-client truncation point, drops the reclaimed prefix from
the index, and compacts ``log.dat`` by rewriting it from the live
state (tmp file + atomic rename + directory fsync) — a restart
then replays only the retained suffix.  An IO error (disk full) wedges
the store read-only: appends raise
:class:`~repro.core.errors.StorageError`, reads keep working.

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
from ..core.store import ClientLogState, LogServerStore
from ..net.codec import (
    RECORD_HEADER_BYTES,
    WireCodecError,
    check_stored_image,
    decode_stored_record,
    encode_stored_record,
)
from .faultfs import PassthroughIO

ENTRY_MAGIC = 0x4C45
_ENTRY = struct.Struct("!HB16s")

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
#: ``E_GENERATOR``), a count of the compactions this stream has been
#: through.  Each compaction starts its rewritten stream with the
#: incremented count, and replay restores the highest one it sees.
E_META = 6
#: Ownership fence: the entry's client stream refuses any
#: WriteLog/ForceLog/TruncateLog below the stored epoch (``!II`` epoch
#: + CRC, like ``E_INSTALL``).  Durable so a server that crashes and
#: recovers still fences the superseded writer — the linearizable
#: handoff's safety rests on the fence never being forgotten.
E_FENCE = 7

#: the payload of each scalar entry type: a value, then the CRC-32 of
#: the value's bytes.
_SCALARS = {
    E_INSTALL: struct.Struct("!II"),
    E_GENERATOR: struct.Struct("!QI"),
    E_TRUNCATE: struct.Struct("!II"),
    E_META: struct.Struct("!QI"),
    E_FENCE: struct.Struct("!II"),
}
#: bytes of the CRC that ends a scalar payload.
_SCALAR_CRC_BYTES = 4


def _scalar(etype: int, value: int) -> bytes:
    """The payload of an ``etype`` entry carrying ``value``."""
    layout = _SCALARS[etype]
    value_bytes = layout.pack(value, 0)[:-_SCALAR_CRC_BYTES]
    return layout.pack(value, zlib.crc32(value_bytes))


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


class FileStoreError(Exception):
    """A malformed durable file that is not a recoverable torn tail."""


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
        #: compactions this stream has been through (see ``E_META``).
        self.log_generation = 0
        #: first storage failure observed; non-None wedges all appends
        #: (the daemon degrades to read-only rather than lying about
        #: durability).
        self.io_error: str | None = None
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
        layout = _SCALARS.get(etype)
        if layout is None:
            return None
        if have < _ENTRY.size + layout.size:
            return _ENTRY.size + layout.size
        value, crc = layout.unpack_from(raw, body)
        end = body + layout.size
        if zlib.crc32(raw[body:end - _SCALAR_CRC_BYTES]) != crc:
            self.crc_rejections += 1
            return None
        return etype, client_id, value, end

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
                buf += header
                buf += image
        finally:
            # Flush whatever was admitted before a mid-batch protocol
            # error: the index already holds those records, and it
            # must never run ahead of the durable stream.
            if buf:
                self._flush_record_batch(bytes(buf), client_id)
        if fsync:
            self.sync()

    def _flush_record_batch(self, buf: bytes, client_id: str) -> None:
        """One buffered write for a validated batch."""
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
        self._append_entry(E_INSTALL, client_id, _scalar(E_INSTALL, epoch),
                           fsync=True)
        self._changed(client_id)
        return self.mem.install_copies(client_id, epoch)

    def generator_write(self, value: int) -> None:
        """Durably advance the Appendix I generator representative."""
        if value > self.generator_value:
            self._append_entry(E_GENERATOR, "", _scalar(E_GENERATOR, value),
                               fsync=True)
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
            self._append_entry(E_FENCE, client_id, _scalar(E_FENCE, epoch),
                               fsync=True)
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
                self._append_entry(E_TRUNCATE, client_id,
                                   _scalar(E_TRUNCATE, mark), fsync=True)
        return dropped

    def truncated_lsn(self, client_id: str) -> LSN:
        """The client's applied low-water mark (0 = never truncated)."""
        state = self.mem.find_client(client_id)
        return state.truncated_below if state is not None else 0

    def _compact(self) -> None:
        """Rewrite ``log.dat`` as a checkpoint of the live state.

        The compacted stream carries every standing fence epoch, then,
        per client: the truncation mark, every retained record in write
        order (a subsequence of a legally ordered stream is legally
        ordered), and the staged-but-uninstalled CopyLog records of
        each epoch above the last retained record's; plus the generator
        value.  Install
        markers are not rewritten — installed copies are already
        materialized as records.  A staged set at or below that epoch
        (a restart that crashed before its install, overtaken by a
        later one that installed) can never be installed, and replay
        would refuse it after the records and end the valid prefix
        there: it is dropped, from the stream and from the index.
        Replaying the compacted stream reconstructs the exact same
        index.

        Record images are copied from the old file by offset, each
        CRC-verified on the way: a corrupt one aborts the compaction
        rather than being carried into a stream whose replay would end
        at it.  The rewrite goes to ``log.dat.tmp`` (fsync'd), then
        atomically replaces ``log.dat``; only then do the handles and
        the read descriptor move to the new file (until then, and if
        the swap fails, both still address the old one).  The rewritten
        stream opens with an ``E_META`` entry carrying the incremented
        log generation.
        """
        self._check_writable()
        tmp_path = Path(str(self._log_path) + ".tmp")
        moved: list[tuple[RecordHandle, int]] = []
        stale: list[tuple[ClientLogState, Epoch]] = []
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

                emit(E_META, "", _scalar(E_META, generation))
                for cid, fence in sorted(self.fence_epochs.items()):
                    emit(E_FENCE, cid, _scalar(E_FENCE, fence))
                for client_id in self.mem.known_clients():
                    state = self.mem.client_state(client_id)
                    if state.truncated_below:
                        emit(E_TRUNCATE, client_id,
                             _scalar(E_TRUNCATE, state.truncated_below))
                    for handle in state.records:
                        moved.append((handle, emit(
                            E_RECORD, client_id, self._load(handle)[1])))
                    for epoch in sorted(state.staged):
                        if epoch <= state.high_epoch:
                            stale.append((state, epoch))
                            continue
                        for handle in state.staged[epoch]:
                            moved.append((handle, emit(
                                E_STAGED, client_id, self._load(handle)[1])))
                if self.generator_value:
                    emit(E_GENERATOR, "",
                         _scalar(E_GENERATOR, self.generator_value))
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
        for state, epoch in stale:
            del state.staged[epoch]
        self.log_generation = generation
        self._size = size
        self._covered()
        self.compactions += 1
        self.reclaimed_bytes += max(0, old_size - size)

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
        """The record stored under ``lsn``, read through the handle
        index like :meth:`read_record`; ``None`` when none is stored.

        Not a second index: the handles are the store's only one (the
        Section 4.3 append-forest is the simulator's, in
        :mod:`repro.storage.append_forest`).  This exists only because
        the ``rt.filestore.read_via_index_us`` rung of
        ``benchmarks/e2e/ladder.py`` and
        ``tests/test_benchmark_surface.py`` call it by name; ROADMAP
        item 0 retires it with that rung.
        """
        state = self.mem.find_client(client_id)
        handle = state.lookup(lsn) if state is not None else None
        return self._load(handle)[0] if handle is not None else None

    # -- lifecycle ----------------------------------------------------

    @property
    def injected_faults(self) -> int:
        """Faults the I/O backend injected (0 under the passthrough)."""
        return self.io.faults_injected

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._flushed = self._size

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        self._reader.close()
