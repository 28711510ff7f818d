"""ReadLog service cost must not grow with the retained log.

The daemon used to sort every stored LSN of the stream on each ReadLog
call, so a point read against a 40 000-record stream cost as much as a
fsync'd force.  ``stored_lsns`` now hands out the maintained index; this
is the gate that keeps it that way.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from repro.core.records import StoredRecord
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon

CLIENT = "c"
SMALL, LARGE = 1_000, 64_000
ROUNDS, CALLS = 9, 200


def _daemon(path, records: int) -> LogServerDaemon:
    store = FileLogStore(path, "s1")
    data = b"r" * 64
    for lo in range(1, records + 1, 500):
        store.append_records(CLIENT, tuple(
            StoredRecord(lsn, 1, data=data)
            for lsn in range(lo, min(lo + 500, records + 1))), fsync=False)
    return LogServerDaemon(store)


def _per_call(daemon: LogServerDaemon, records: int, offset: int) -> float:
    t0 = perf_counter()
    for i in range(CALLS):
        lsn = 1 + (offset + i * 7919) % records
        reply = daemon._on_read(CLIENT, lsn, forward=bool(i & 1))
        assert reply.records
    return (perf_counter() - t0) / CALLS


def test_on_read_cost_is_flat_in_stream_length(tmp_path):
    small = _daemon(tmp_path / "small", SMALL)
    large = _daemon(tmp_path / "large", LARGE)
    try:
        small_times, large_times = [], []
        for round_ in range(ROUNDS):  # interleaved: noise hits both sides
            small_times.append(_per_call(small, SMALL, round_ * 31))
            large_times.append(_per_call(large, LARGE, round_ * 31))
        ratio = median(large_times) / median(small_times)
        # the sort per call measured > 20x here; the index about 1x
        assert ratio <= 3.0, (median(small_times), median(large_times))
    finally:
        small.store.close()
        large.store.close()


def test_stored_lsns_is_the_index_not_a_copy(tmp_path):
    store = FileLogStore(tmp_path / "s1", "s1")
    try:
        store.append_records(CLIENT, tuple(
            StoredRecord(lsn, 1, data=b"x") for lsn in (1, 2, 3)),
            fsync=False)
        first = store.stored_lsns(CLIENT)
        assert first == [1, 2, 3]
        assert store.stored_lsns(CLIENT) is first
        store.append_records(
            CLIENT, (StoredRecord(4, 1, data=b"x"),), fsync=False)
        assert store.stored_lsns(CLIENT) == [1, 2, 3, 4]
    finally:
        store.close()
