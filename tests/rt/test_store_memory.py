"""What a :class:`FileLogStore` keeps resident is an index, not the log.

Measured with ``tracemalloc``: the bytes retained per stored record do
not depend on the record's payload size — neither after appending nor
after close + reopen — and opening a log streams it instead of reading
it whole.  (With payloads held in memory, a 2 048 B record retained
≈ 2 300 B and opening a 40 MB log peaked ≈ 40 MB above what it kept.)
The images appended since the last fsync are a cache too, and capped:
a client that streams WriteLogs and never forces does not grow it.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.records import StoredRecord
from repro.rt.faultfs import PassthroughIO
from repro.rt.filestore import TAIL_CACHE_BYTES, FileLogStore

RECORDS = 20_000
BATCH = 8


def _fill(store: FileLogStore, size: int) -> None:
    """``RECORDS`` records of ``size`` distinct bytes each, forced every
    few batches the way a client's δ-window would."""
    for lo in range(1, RECORDS + 1, BATCH):
        store.append_records("c", tuple(
            StoredRecord(lsn, 1, data=lsn.to_bytes(4, "big") * (size // 4))
            for lsn in range(lo, lo + BATCH)), fsync=lo % (4 * BATCH) == 1)
    store.sync()


def _traced_now() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict[int, dict[str, float]]:
    """Per payload size: bytes retained per record after the appends and
    after a reopen, the reopen's tracemalloc peak above what it kept,
    and the log's size."""
    out: dict[int, dict[str, float]] = {}
    for size in (64, 2048):
        data_dir = tmp_path_factory.mktemp(f"mem{size}")
        tracemalloc.start()
        try:
            before = _traced_now()
            store = FileLogStore(data_dir, "s1")
            _fill(store, size)
            steady = _traced_now() - before
            log_bytes = store.log_size_bytes
            store.close()
            del store
            before = _traced_now()
            tracemalloc.reset_peak()
            store = FileLogStore(data_dir, "s1")
            peak = tracemalloc.get_traced_memory()[1] - before
            reopened = _traced_now() - before
            assert store.record_count() == RECORDS
            assert store.read_record("c", RECORDS).data == \
                RECORDS.to_bytes(4, "big") * (size // 4)
            store.close()
        finally:
            tracemalloc.stop()
        out[size] = {"steady": steady / RECORDS,
                     "reopened": reopened / RECORDS,
                     "open_peak_over_retained": peak - reopened,
                     "log_bytes": log_bytes}
    return out


@pytest.mark.parametrize("phase", ["steady", "reopened"])
def test_retained_bytes_per_record_do_not_grow_with_the_payload(
        measured, phase):
    small, large = measured[64][phase], measured[2048][phase]
    assert small < 300 and large < 300, (small, large)
    assert abs(large - small) < 0.10 * small, (small, large)


def test_open_streams_the_log_instead_of_reading_it_whole(measured):
    run = measured[2048]
    assert run["log_bytes"] >= 20 * 1024 * 1024
    assert run["open_peak_over_retained"] <= 4 * 1024 * 1024, run


class _CountingIO(PassthroughIO):
    """The passthrough backend, counting ``log.dat`` fsyncs."""

    fsyncs = 0

    def fsync(self, fh, site):
        self.fsyncs += 1
        super().fsync(fh, site)


def test_a_stream_that_never_forces_does_not_grow_the_tail(tmp_path):
    """8 MiB of WriteLogs and no force: the unsynced tail stays within
    its cap, and nothing that was dropped from it is lost — it reads
    back, a re-send is still a duplicate, one fsync still covers it."""
    size = 1024
    batch = 32

    def records(lo: int) -> tuple[StoredRecord, ...]:
        return tuple(
            StoredRecord(lsn, 1, data=lsn.to_bytes(4, "big") * (size // 4))
            for lsn in range(lo, lo + batch))

    io = _CountingIO()
    store = FileLogStore(tmp_path, "s1", io=io)
    try:
        total = 8 * 1024 * 1024 // size
        most = 0
        for lo in range(1, total + 1, batch):
            store.append_records("c", records(lo), fsync=False)
            most = max(most, sum(map(len, store._tail.values())))
        assert io.fsyncs == 0
        assert most <= TAIL_CACHE_BYTES + batch * (16 + size), most
        assert len(store._tail) < total  # the head of the stream left it

        for lsn in (1, batch, total // 2, total):
            assert store.read_record("c", lsn) == StoredRecord(
                lsn, 1, data=lsn.to_bytes(4, "big") * (size // 4))
        appended = store.bytes_appended
        store.append_records("c", records(1), fsync=False)  # evicted
        store.append_records("c", records(total - batch + 1), fsync=False)
        assert store.bytes_appended == appended  # duplicates: no write
        assert store.record_count() == total

        store.sync()
        assert io.fsyncs == 1 and not store._tail

        # a forced window (bulk_stream's: 32 x 1 KiB) is far below the
        # cap: all of it is still cached when its force re-sends it
        store.append_records("c", records(total + 1), fsync=False)
        assert len(store._tail) == batch
        total += batch
    finally:
        store.close()
    reopened = FileLogStore(tmp_path, "s1")
    try:
        assert reopened.record_count() == total
        assert reopened.truncated_bytes == 0
    finally:
        reopened.close()
