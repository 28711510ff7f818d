"""Property tests: the durable stream is always a faithful authority.

Whatever sequence of writes, copies and installs a server performs,
replaying its stream must rebuild exactly the semantic store — and the
interval-list checkpoint must never under-report what a tail scan
would need.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import LogServerStore
from repro.core.records import StoredRecord
from repro.storage.log_stream import DiskLogStream, StreamEntry

# script ops: ("write", lsn_step, present) | ("copy+install",) | ("checkpoint",)
op_strategy = st.one_of(
    st.tuples(st.just("write"), st.integers(1, 3), st.booleans()),
    st.just(("recover",)),
    st.just(("checkpoint",)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op_strategy, max_size=30),
       track_bytes=st.sampled_from([128, 512, 4096]))
def test_stream_replay_rebuilds_store_exactly(ops, track_bytes):
    stream = DiskLogStream(track_bytes=track_bytes)
    live = LogServerStore("s")
    lsn = 0
    epoch = 1
    for op in ops:
        if op[0] == "write":
            _tag, step, present = op
            lsn += step  # steps > 1 model NewInterval gaps
            record = StoredRecord(lsn=lsn, epoch=epoch, present=present,
                                  data=b"" if not present else b"d" * 20)
            live.server_write_log("c", lsn, epoch, present, record.data)
            stream.append(StreamEntry("write", "c", record))
        elif op[0] == "recover":
            # a client restart: copy the last record + a guard, install
            if lsn == 0:
                continue
            epoch += 1
            state = live.client_state("c")
            last = state.lookup(lsn)
            copy = StoredRecord(lsn=lsn, epoch=epoch, present=last.present,
                                data=last.data)
            guard = StoredRecord(lsn=lsn + 1, epoch=epoch, present=False)
            live.copy_log("c", copy.lsn, epoch, copy.present, copy.data)
            stream.append(StreamEntry("copy", "c", copy))
            live.copy_log("c", guard.lsn, epoch, False)
            stream.append(StreamEntry("copy", "c", guard))
            live.install_copies("c", epoch)
            stream.append(StreamEntry("install", "c", None, epoch))
            lsn += 1
        else:
            stream.checkpoint(live)

    rebuilt, _count = stream.crash_scan("s")
    assert rebuilt.dump_table("c") == live.dump_table("c")
    # checkpoint (if any) must cover the scan: replaying from the
    # checkpointed track yields interval ends consistent with live
    cp = stream.pages.read_known_location()
    if cp is not None:
        assert stream.scan_cost_with_checkpoint() <= sum(
            1 for _ in stream.entries()
        )


@settings(max_examples=40, deadline=None)
@given(
    n_records=st.integers(0, 60),
    track_bytes=st.sampled_from([128, 1024]),
    lose_open=st.booleans(),
)
def test_crash_scan_prefix_property(n_records, track_bytes, lose_open):
    """Losing the open track yields a clean prefix, never corruption."""
    stream = DiskLogStream(track_bytes=track_bytes)
    for lsn in range(1, n_records + 1):
        stream.append(StreamEntry("write", "c", StoredRecord(
            lsn=lsn, epoch=1, data=b"x" * 16)))
    rebuilt, _ = stream.crash_scan("s", lose_open_track=lose_open)
    state = rebuilt.client_state("c")
    high = state.high_lsn or 0
    assert high <= n_records
    if not lose_open:
        assert high == n_records
    # contiguous prefix: every LSN up to high is present
    for lsn in range(1, high + 1):
        assert state.lookup(lsn) is not None
