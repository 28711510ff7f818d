"""The maintained LSN index and the read handlers that use it.

``ClientLogState.lsns`` must equal ``sorted(state._by_lsn)`` after every
mutation the file store can make, and ``LogServerDaemon._on_read`` —
which now bisects that list instead of sorting the keys per call, and
reads a reply's records as one run — must answer exactly as the
sort-per-call, record-at-a-time implementation did.  That
implementation is kept here as the oracle, with the call's
``max_records`` and the reply's byte cap as one more input.

Also here: read-only calls must not create per-client state, or a peer
could grow a daemon without bound just by naming client ids.
"""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.core.errors import RecordNotStored
from repro.core.records import StoredRecord
from repro.net.codec import encode_stored_record
from repro.net.messages import (
    MAX_RECORDS_ANY,
    RECORD_HEADER_BYTES,
    IntervalListCall,
    IntervalListReply,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    StatsCall,
)
from repro.rt.filestore import FileLogStore
from repro.rt.server import (
    PACKET_REPLY_BYTES,
    READ_REPLY_CAP_BYTES,
    LogServerDaemon,
)

CLIENTS = ("a", "b")

#: no limit (one packet's worth), a point read, small limits the byte
#: caps do or do not bite first, and "all a reply may hold"
LIMITS = (0, 1, 2, 7, MAX_RECORDS_ANY)


def oracle_on_read(store: FileLogStore, client_id: str, lsn: int, *,
                   forward: bool, max_records: int) -> ReadLogReply:
    """``_on_read`` as it was when ``stored_lsns`` sorted per call and
    the reply was packed a ``read_record`` at a time — stopping at the
    call's limit, under the byte cap that limit selects."""
    state = store.mem.find_client(client_id)
    lsns = sorted(state._by_lsn) if state is not None else []
    picked: list[StoredRecord] = []
    budget = READ_REPLY_CAP_BYTES if max_records else PACKET_REPLY_BYTES
    if forward:
        index = bisect_left(lsns, lsn)
        step = 1
    else:
        index = bisect_right(lsns, lsn) - 1
        step = -1
    while 0 <= index < len(lsns) and budget > 0 \
            and not (max_records and len(picked) == max_records):
        try:
            record = store.read_record(client_id, lsns[index])
        except RecordNotStored:
            break
        cost = RECORD_HEADER_BYTES + len(record.data)
        if picked and cost > budget:
            break
        budget -= cost
        picked.append(record)
        index += step
    if not forward:
        picked.reverse()
    return ReadLogReply(client_id, tuple(picked))


def check_index_and_reads(store: FileLogStore) -> None:
    daemon = LogServerDaemon(store)
    for client_id in CLIENTS:
        state = store.mem.find_client(client_id)
        if state is None:
            assert store.stored_lsns(client_id) == []
            continue
        assert state.lsns == sorted(state._by_lsn)
        assert store.stored_lsns(client_id) is state.lsns
        assert state.high_lsn == (max(state._by_lsn) if state._by_lsn
                                  else None)
        # every kind of start: below the truncation mark, stored, in a
        # gap, the high LSN, above it
        for lsn in range(0, (state.high_lsn or 0) + 3):
            for forward in (True, False):
                for limit in LIMITS:
                    images: list[bytes] = []
                    reply = daemon._on_read(client_id, lsn, forward=forward,
                                            max_records=limit, images=images)
                    assert reply == oracle_on_read(
                        store, client_id, lsn, forward=forward,
                        max_records=limit)
                    # what goes on the wire is the collected images
                    assert images == [encode_stored_record(r)
                                      for r in reply.records]


def _payload(lsn: int, epoch: int, size: int) -> bytes:
    return (f"{lsn}/{epoch}:".encode() * (size // 4 + 1))[:size]


#: (kind, client index, a, b, payload size) — interpreted against the
#: store's current state so every drawn step is a legal call.
STEP = st.tuples(
    st.sampled_from(["append", "append", "append", "new-epoch", "install",
                     "truncate", "compact", "reopen"]),
    st.integers(0, 1), st.integers(0, 6), st.integers(1, 6),
    # 600 B: two to a packet; 30 000 B: two to a 64 KiB reply
    st.sampled_from([0, 40, 300, 600, 30_000]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(STEP, min_size=1, max_size=25))
def test_index_tracks_every_mutation_and_reads_match_the_sort(steps):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "s1")
        store = FileLogStore(path, "s1")
        epochs = {cid: 1 for cid in CLIENTS}
        try:
            for kind, which, a, b, size in steps:
                cid = CLIENTS[which]
                state = store.mem.find_client(cid)
                high = (state.high_lsn or 0) if state is not None else 0
                if kind == "append":
                    # steady state: new maximum, sometimes past a gap
                    start = high + 1 + (a if a > 3 else 0)
                    store.append_records(cid, tuple(
                        StoredRecord(lsn, epochs[cid],
                                     data=_payload(lsn, epochs[cid], size))
                        for lsn in range(start, start + b)), fsync=False)
                elif kind == "new-epoch":
                    # a new epoch restarts below the high-water mark:
                    # rewrites stored LSNs and fills holes (the insort)
                    epochs[cid] += 1
                    start = max(1, high - a)
                    store.append_records(cid, tuple(
                        StoredRecord(lsn, epochs[cid],
                                     data=_payload(lsn, epochs[cid], size))
                        for lsn in range(start, start + b, 2)), fsync=False)
                elif kind == "install":
                    # CopyLog + InstallCopies below the mark, then the
                    # not-present guards above it (restart, §3.1.2)
                    epochs[cid] += 1
                    start = max(1, high - a)
                    for lsn in range(start, start + b):
                        present = lsn <= high
                        store.stage_copy(cid, StoredRecord(
                            lsn, epochs[cid], present=present,
                            data=_payload(lsn, epochs[cid], size)
                            if present else b""))
                    store.install_copies(cid, epochs[cid])
                elif kind == "truncate":
                    store.truncate_below(cid, max(0, high - a + 2))
                elif kind == "compact":
                    store._compact()
                else:
                    store.close()
                    store = FileLogStore(path, "s1")
                check_index_and_reads(store)
        finally:
            store.close()


def test_read_only_calls_do_not_create_client_state(tmp_path):
    store = FileLogStore(tmp_path / "s1", "s1")
    try:
        store.append_records(
            "real", (StoredRecord(1, 1, data=b"x"),), fsync=False)
        daemon = LogServerDaemon(store)
        before = store.mem.known_clients()
        for i in range(10_000):
            cid = f"ghost-{i}"
            assert daemon._dispatch(ReadLogForwardCall(cid, lsn=1)) == \
                [ReadLogReply(cid, ())]
            assert daemon._dispatch(ReadLogBackwardCall(cid, lsn=9)) == \
                [ReadLogReply(cid, ())]
            assert daemon._dispatch(IntervalListCall(cid)) == \
                [IntervalListReply(cid, ())]
            (stats,) = daemon._dispatch(StatsCall(cid))
            counters = stats.as_dict()
            assert counters["truncated_lsn"] == 0
            assert counters["fence_epoch"] == 0
            assert counters["store_records"] == 1
        assert store.mem.known_clients() == before == ["real"]
        assert store.client_high_lsn("ghost-0") is None
    finally:
        store.close()
