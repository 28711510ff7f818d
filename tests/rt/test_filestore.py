"""Durable-store tests: reopen, torn tails, duplicates, fences."""

from __future__ import annotations

import struct

import pytest

from repro.core.errors import ProtocolError
from repro.core.records import StoredRecord
from repro.rt.filestore import ENTRY_MAGIC, FileLogStore


def rec(lsn, epoch=1, data=None, present=True, kind="data"):
    if data is None:
        data = f"r{lsn}".encode() if present else b""
    return StoredRecord(lsn=lsn, epoch=epoch, present=present,
                        data=data if present else b"", kind=kind)


def test_reopen_recovers_records(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    for i in range(1, 11):
        store.append_record("c", rec(i), fsync=False)
    store.sync()
    store.close()

    again = FileLogStore(tmp_path, "s1")
    assert again.recovered_entries == 10
    assert again.truncated_bytes == 0
    assert again.stored_lsns("c") == list(range(1, 11))
    for i in range(1, 11):
        assert again.read_record("c", i).data == f"r{i}".encode()
    assert [(iv.epoch, iv.lo, iv.hi) for iv in again.interval_list("c")] \
        == [(1, 1, 10)]
    again.close()


def test_reopen_truncates_torn_tail(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    for i in range(1, 6):
        store.append_record("c", rec(i), fsync=False)
    store.sync()
    store.close()

    # Simulate a crash mid-append: chop bytes out of the final entry.
    log = tmp_path / "log.dat"
    intact = log.stat().st_size
    log.write_bytes(log.read_bytes() + b"\x00\x01garbage")

    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1, 2, 3, 4, 5]
    assert again.truncated_bytes > 0
    assert log.stat().st_size == intact  # tail removed, prefix kept
    # The stream accepts appends after the truncation.
    again.append_record("c", rec(6), fsync=True)
    again.close()
    final = FileLogStore(tmp_path, "s1")
    assert final.stored_lsns("c") == [1, 2, 3, 4, 5, 6]
    final.close()


def test_corrupt_record_data_ends_valid_prefix(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_record("c", rec(1, data=b"aaaa"), fsync=False)
    store.append_record("c", rec(2, data=b"bbbb"), fsync=False)
    store.sync()
    store.close()

    log = tmp_path / "log.dat"
    raw = bytearray(log.read_bytes())
    raw[-1] ^= 0xFF  # flip a byte of record 2's data: CRC must catch it
    log.write_bytes(bytes(raw))

    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1]
    again.close()


def test_duplicate_append_is_dropped_conflict_rejected(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_record("c", rec(1), fsync=True)
    size = (tmp_path / "log.dat").stat().st_size
    store.append_record("c", rec(1), fsync=True)  # identical: no new bytes
    assert (tmp_path / "log.dat").stat().st_size == size
    with pytest.raises(ProtocolError):
        store.append_record("c", rec(1, data=b"different"), fsync=True)
    assert (tmp_path / "log.dat").stat().st_size == size
    store.close()


def test_forced_duplicate_still_syncs_the_unsynced_original(tmp_path):
    """A duplicate writes nothing, but its fsync is still owed: the
    original may sit in an unsynced WriteLog."""
    store = FileLogStore(tmp_path, "s1")
    store.append_records("c", (rec(1),), fsync=False)
    before = store.fsyncs
    store.append_record("c", rec(1), fsync=True)
    assert store.fsyncs == before + 1
    store.close()


def test_copy_install_cycle_survives_reopen(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    for i in range(1, 4):
        store.append_record("c", rec(i), fsync=False)
    store.sync()
    store.stage_copy("c", rec(3, epoch=2, data=b"rewrite"))
    store.stage_copy("c", rec(4, epoch=2, present=False, kind="guard"))
    store.install_copies("c", 2)
    store.close()

    again = FileLogStore(tmp_path, "s1")
    assert again.read_record("c", 3).epoch == 2
    assert again.read_record("c", 3).data == b"rewrite"
    assert again.read_record("c", 4).present is False
    again.close()


def test_staged_but_uninstalled_copies_stay_invisible(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_record("c", rec(1), fsync=True)
    store.stage_copy("c", rec(1, epoch=2, data=b"rewrite"))
    store.close()  # crash before InstallCopies

    again = FileLogStore(tmp_path, "s1")
    assert again.read_record("c", 1).epoch == 1  # install never happened
    again.close()


def test_generator_value_is_durable_and_monotone(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.generator_write(7)
    store.generator_write(3)  # lower: ignored
    assert store.generator_value == 7
    store.close()
    again = FileLogStore(tmp_path, "s1")
    assert again.generator_value == 7
    again.close()


def test_fence_is_durable_and_monotone(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    assert store.fence_epoch("c") == 0
    assert store.fence_write("c", 5) == 5
    assert store.fence_write("c", 3) == 5   # lower: refused, standing wins
    assert store.fence_write("c", 5) == 5   # equal: idempotent
    assert store.fence_write("c", 9) == 9
    store.close()

    again = FileLogStore(tmp_path, "s1")
    assert again.fence_epoch("c") == 9
    assert again.fence_epoch("other") == 0  # per-stream, not per-server
    again.close()


def test_fence_survives_compaction(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    for i in range(1, 9):
        store.append_record("c", rec(i), fsync=False)
    store.sync()
    store.fence_write("c", 4)
    store.truncate_below("c", 6)  # triggers _compact: fences re-emitted
    assert store.fence_epoch("c") == 4
    store.close()

    again = FileLogStore(tmp_path, "s1")
    assert again.fence_epoch("c") == 4
    assert again.stored_lsns("c") == [6, 7, 8]
    again.close()


def test_torn_fence_tail_reverts_to_prior_fence(tmp_path):
    """A fence is installed exactly when its fsync'd entry is intact."""
    store = FileLogStore(tmp_path, "s1")
    store.append_record("c", rec(1), fsync=True)
    store.fence_write("c", 2)
    intact = (tmp_path / "log.dat").stat().st_size
    store.fence_write("c", 7)
    store.close()

    log = tmp_path / "log.dat"
    log.write_bytes(log.read_bytes()[:intact + 3])  # tear the epoch-7 entry

    again = FileLogStore(tmp_path, "s1")
    assert again.fence_epoch("c") == 2
    assert again.stored_lsns("c") == [1]
    again.close()


def test_entry_magic_mismatch_ends_prefix(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_record("c", rec(1), fsync=True)
    store.close()
    log = tmp_path / "log.dat"
    raw = log.read_bytes()
    assert struct.unpack_from("!H", raw, 0)[0] == ENTRY_MAGIC
    log.write_bytes(raw + struct.pack("!H", 0xDEAD) + b"\x00" * 20)
    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1]
    again.close()
