"""Streaming replay of ``log.dat`` against the whole-file scan it replaced.

``FileLogStore._recover`` used to read the whole file and parse it in
place; it now streams the file in bounded chunks and keeps a handle per
record instead of the record.  The old scan is kept here, verbatim in
what it decides, as the oracle: for a random history and a random
mutilation of the file's tail, replay at every chunk size — smaller
than an entry header, smaller than a record, larger than the file —
must find the same valid prefix, count the same torn bytes and CRC
rejections, and serve the same records.  Hostile tail bytes may only
ever be treated as a torn tail, never raise.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import zlib

from hypothesis import given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.core.records import StoredRecord
from repro.core.store import LogServerStore
from repro.net.codec import (
    RECORD_HEADER_BYTES,
    WireCodecError,
    decode_stored_record,
    encode_stored_record,
)
from repro.rt.filestore import (
    _ENTRY,
    E_FENCE,
    E_GENERATOR,
    E_INSTALL,
    E_META,
    E_RECORD,
    E_STAGED,
    E_TRUNCATE,
    ENTRY_MAGIC,
    FileLogStore,
)

CLIENTS = ("a", "b")

#: the scalar entries' payloads as the oracle reads them: a value and
#: the CRC-32 of its bytes (stated here, not taken from the store).
_INSTALL = struct.Struct("!II")
_GENERATOR = struct.Struct("!QI")


# -- the oracle: the whole-file scan, holding real records --------------------


class WholeFileScan:
    """``FileLogStore._recover`` + ``_parse_entry`` as they were when
    the file was read whole and records were kept in memory."""

    def __init__(self, raw: bytes):
        self.mem = LogServerStore("oracle")
        self.crc_rejections = 0
        self.recovered_entries = 0
        self.generator_value = 0
        self.log_generation = 0
        self.fence_epochs: dict[str, int] = {}
        offset = 0
        while offset < len(raw):
            parsed = self._parse_entry(raw, offset)
            if parsed is None:
                break
            etype, client_id, payload, next_offset = parsed
            try:
                if etype == E_RECORD:
                    self.mem.server_write_record(client_id, payload)
                elif etype == E_STAGED:
                    self.mem.copy_log(client_id, payload.lsn, payload.epoch,
                                      payload.present, payload.data,
                                      payload.kind)
                elif etype == E_INSTALL:
                    self.mem.install_copies(client_id, payload)
                elif etype == E_TRUNCATE:
                    self.mem.truncate_below(client_id, payload)
                elif etype == E_META:
                    self.log_generation = max(self.log_generation, payload)
                elif etype == E_FENCE:
                    self.fence_epochs[client_id] = max(
                        self.fence_epochs.get(client_id, 0), payload)
                else:
                    self.generator_value = max(self.generator_value, payload)
            except ProtocolError:
                self.crc_rejections += 1
                break
            self.recovered_entries += 1
            offset = next_offset
        self.valid = offset
        self.truncated_bytes = len(raw) - offset

    def _parse_entry(self, raw: bytes, offset: int):
        if offset + _ENTRY.size > len(raw):
            return None
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
                if body + RECORD_HEADER_BYTES <= len(raw):
                    (dlen,) = struct.unpack_from("!H", raw, body + 10)
                    if body + RECORD_HEADER_BYTES + dlen <= len(raw):
                        self.crc_rejections += 1
                return None
            return etype, client_id, record, end
        if etype in (E_INSTALL, E_TRUNCATE, E_FENCE):
            if body + _INSTALL.size > len(raw):
                return None
            value, crc = _INSTALL.unpack_from(raw, body)
            if zlib.crc32(raw[body:body + 4]) != crc:
                self.crc_rejections += 1
                return None
            return etype, client_id, value, body + _INSTALL.size
        if etype in (E_GENERATOR, E_META):
            if body + _GENERATOR.size > len(raw):
                return None
            value, crc = _GENERATOR.unpack_from(raw, body)
            if zlib.crc32(raw[body:body + 8]) != crc:
                self.crc_rejections += 1
                return None
            return etype, client_id, value, body + _GENERATOR.size
        return None


def _fields(record) -> tuple:
    return (record.lsn, record.epoch, record.present, record.data,
            record.kind)


def assert_replay_matches(store: FileLogStore, oracle: WholeFileScan,
                          log_path: str) -> None:
    assert store.log_size_bytes == oracle.valid
    assert os.path.getsize(log_path) == oracle.valid
    assert store.truncated_bytes == oracle.truncated_bytes
    assert store.crc_rejections == oracle.crc_rejections
    assert store.recovered_entries == oracle.recovered_entries
    assert store.generator_value == oracle.generator_value
    assert store.log_generation == oracle.log_generation
    assert store.fence_epochs == oracle.fence_epochs
    assert store.mem.known_clients() == oracle.mem.known_clients()
    for client_id in oracle.mem.known_clients():
        want = oracle.mem.client_state(client_id)
        assert store.truncated_lsn(client_id) == want.truncated_below
        assert store.interval_list(client_id).intervals == want.intervals()
        assert store.stored_lsns(client_id) == want.lsns
        for lsn in want.lsns:
            assert _fields(store.read_record(client_id, lsn)) == \
                _fields(want.lookup(lsn))
        staged = store.mem.client_state(client_id).staged
        assert {e: [r.lsn for r in rs] for e, rs in staged.items()} == \
            {e: [r.lsn for r in rs] for e, rs in want.staged.items()}


# -- random histories ---------------------------------------------------------


def _payload(cid: str, lsn: int, epoch: int, size: int) -> bytes:
    return (f"{cid}{lsn}/{epoch}:".encode() * (size // 4 + 1))[:size]


#: (kind, client index, a, b, payload size), interpreted against the
#: store's current state so that every drawn step is a legal call.
STEP = st.tuples(
    st.sampled_from(["append", "append", "append", "resend", "dup-old",
                     "copy-install", "fence", "generator", "truncate",
                     "compact", "reopen"]),
    st.integers(0, 1), st.integers(0, 6), st.integers(1, 5),
    st.sampled_from([0, 24, 300, 1500]),
)

#: what happens to the file's tail: cut it at a byte, flip one bit,
#: append garbage (positions are fractions of the file's length).
MUTILATION = st.one_of(
    st.tuples(st.just("none"), st.just(0.0), st.just(b"")),
    st.tuples(st.just("cut"), st.floats(0.0, 1.0), st.just(b"")),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0),
              st.binary(min_size=1, max_size=1)),
    st.tuples(st.just("garbage"), st.just(1.0),
              st.binary(min_size=1, max_size=120)),
)


def run_history(path: str, steps) -> None:
    store = FileLogStore(path, "s1")
    epochs = {cid: 1 for cid in CLIENTS}
    generator = 0

    def batch(cid, start, count, size):
        return tuple(StoredRecord(lsn, epochs[cid],
                                  data=_payload(cid, lsn, epochs[cid], size))
                     for lsn in range(start, start + count))

    try:
        for kind, which, a, b, size in steps:
            cid = CLIENTS[which]
            high = store.client_high_lsn(cid) or 0
            if kind == "append":  # new maximum, sometimes past a gap
                start = high + 1 + (a if a > 3 else 0)
                store.append_records(cid, batch(cid, start, b, size),
                                     fsync=bool(a & 1))
            elif kind == "resend":  # WriteLog, then the Force re-sends it
                sent = batch(cid, high + 1, b, size)
                store.append_records(cid, sent, fsync=False)
                store.append_records(
                    cid, sent + batch(cid, high + 1 + b, a % 3, size),
                    fsync=True)
            elif kind == "dup-old":  # a duplicate of a long-synced record
                lsns = store.stored_lsns(cid)
                if lsns:
                    store.sync()
                    old = store.read_record(cid, lsns[a % len(lsns)])
                    store.append_records(cid, (old,), fsync=False)
            elif kind == "copy-install":  # rewrite at/below the high mark
                epochs[cid] += 1
                start = max(1, high - a)
                for lsn in range(start, start + b):
                    present = bool((lsn + a) % 3)
                    store.stage_copy(cid, StoredRecord(
                        lsn, epochs[cid], present=present,
                        data=_payload(cid, lsn, epochs[cid], size)
                        if present else b""))
                if a != 6:  # sometimes left staged, never installed
                    store.install_copies(cid, epochs[cid])
            elif kind == "fence":
                store.fence_write(cid, epochs[cid] + (a % 2))
            elif kind == "generator":
                generator += a
                store.generator_write(generator)
            elif kind == "truncate":
                store.truncate_below(cid, max(1, high - a + 2))
            elif kind == "compact":
                store._compact()
            else:  # reopen
                store.close()
                store = FileLogStore(path, "s1")
    finally:
        store.close()


def mutilate(log_path: str, mutilation) -> None:
    kind, where, extra = mutilation
    size = os.path.getsize(log_path)
    if kind == "cut":
        os.truncate(log_path, int(where * size))
    elif kind == "flip" and size:
        position = min(size - 1, int(where * size))
        with open(log_path, "r+b") as fh:
            fh.seek(position)
            byte = fh.read(1)[0]
            fh.seek(position)
            fh.write(bytes([byte ^ (1 << (extra[0] % 8))]))
    elif kind == "garbage":
        with open(log_path, "ab") as fh:
            fh.write(extra)


def open_with_chunk(path: str, chunk: int) -> FileLogStore:
    chunked = type("Chunked", (FileLogStore,), {"replay_chunk_bytes": chunk})
    return chunked(path, "s1")


@settings(max_examples=200, deadline=None)
@given(st.lists(STEP, min_size=1, max_size=20), MUTILATION)
def test_streamed_replay_equals_the_whole_file_scan(steps, mutilation):
    with tempfile.TemporaryDirectory() as root:
        origin = os.path.join(root, "origin")
        run_history(origin, steps)
        log_path = os.path.join(origin, "log.dat")
        mutilate(log_path, mutilation)
        with open(log_path, "rb") as fh:
            raw = fh.read()
        oracle = WholeFileScan(raw)
        for chunk in sorted({_ENTRY.size - 1, 64, 4096, max(1, len(raw))}):
            copy = os.path.join(root, f"chunk{chunk}")
            shutil.copytree(origin, copy)
            store = open_with_chunk(copy, chunk)
            try:
                assert_replay_matches(store, oracle,
                                      os.path.join(copy, "log.dat"))
            finally:
                store.close()


# -- the cases the property is least likely to draw ---------------------------


def _entry(etype: int, cid: str, body: bytes) -> bytes:
    return _ENTRY.pack(ENTRY_MAGIC, etype, cid.encode()) + body


def _replay(tmp_path, raw: bytes, chunk: int):
    data_dir = tmp_path / f"chunk{chunk}"
    data_dir.mkdir(parents=True)
    (data_dir / "log.dat").write_bytes(raw)
    store = open_with_chunk(str(data_dir), chunk)
    try:
        assert_replay_matches(store, WholeFileScan(raw),
                              str(data_dir / "log.dat"))
    finally:
        store.close()


def test_an_entry_larger_than_the_chunk_is_read_whole(tmp_path):
    big = StoredRecord(1, 1, data=bytes(range(256)) * 250)  # 64 000 B
    raw = _entry(E_RECORD, "a", encode_stored_record(big)) \
        + _entry(E_RECORD, "a", encode_stored_record(
            StoredRecord(2, 1, data=b"after")))
    for chunk in (_ENTRY.size - 1, 4096, len(raw)):
        _replay(tmp_path, raw, chunk)
        # ... and torn inside the big record, at a chunk edge or not
        _replay(tmp_path / f"chunk{chunk}", raw[:40_000], chunk)


def test_a_repeated_entry_is_compared_by_reading_it_back(tmp_path):
    """The same E_RECORD twice in the stream (never written by this
    store, but legal to replay): the duplicate check needs the first
    one's bytes, which replay no longer holds — it reads them back."""
    once = _entry(E_RECORD, "a", encode_stored_record(
        StoredRecord(1, 1, data=b"same bytes")))
    other = _entry(E_RECORD, "a", encode_stored_record(
        StoredRecord(1, 1, data=b"not the same")))
    tail = _entry(E_RECORD, "a", encode_stored_record(
        StoredRecord(2, 1, data=b"tail")))
    for chunk in (_ENTRY.size - 1, 4096):
        _replay(tmp_path / f"dup{chunk}", once + once + tail, chunk)
        # a conflicting rewrite ends the valid prefix instead
        _replay(tmp_path / f"conflict{chunk}", once + other + tail, chunk)



def test_bytes_cut_off_the_tail_are_not_served_to_later_reads(tmp_path):
    """The read-back of a repeated entry keeps the block it read; the
    torn tail in that block is then truncated and overwritten by new
    appends, which must be read as written."""
    once = _entry(E_RECORD, "a", encode_stored_record(
        StoredRecord(1, 1, data=b"same bytes")))
    (tmp_path / "log.dat").write_bytes(once + once + b"\x4c\x45" * 200)
    store = FileLogStore(tmp_path, "s1")
    try:
        assert store.truncated_bytes == 400
        fresh = StoredRecord(2, 1, data=b"written over the torn tail")
        store.append_records("a", (fresh,), fsync=True)
        assert store.read_record("a", 2) == fresh
    finally:
        store.close()
