"""Tests for write-once (optical) media support (Section 4.3).

"They may be checkpointed to a known location on a reusable disk or to
a write once disk along with the log data stream."
"""

from repro.core.store import LogServerStore
from repro.core.records import StoredRecord
from repro.server.index import ServerLogIndex
from repro.storage.log_stream import Checkpoint, DiskLogStream, StreamEntry


def write_entry(lsn, client="c", data=b"x" * 40):
    return StreamEntry("write", client,
                       StoredRecord(lsn=lsn, epoch=1, data=data))


def build(write_once=True, records=30, checkpoint_at=(10, 20)):
    stream = DiskLogStream(track_bytes=200, write_once=write_once)
    live = LogServerStore("s")
    for lsn in range(1, records + 1):
        live.server_write_log("c", lsn, 1, True, b"x" * 40)
        stream.append(write_entry(lsn))
        if lsn in checkpoint_at:
            stream.checkpoint(live)
    stream.seal_track()
    return stream, live


class TestWriteOnceCheckpoints:
    def test_checkpoint_appended_to_stream(self):
        stream, _live = build()
        kinds = [type(stream.pages.read(a)).__name__
                 for a in range(len(stream.pages))]
        assert kinds.count("Checkpoint") == 2
        # never touched the reusable known location
        assert stream.pages.read_known_location() is None

    def test_latest_checkpoint_is_newest(self):
        stream, live = build()
        cp = stream.latest_checkpoint()
        assert isinstance(cp, Checkpoint)
        assert cp.intervals["c"] == ((1, 1, 20),)

    def test_entries_skip_checkpoint_pages(self):
        stream, _live = build()
        lsns = [e.record.lsn for e in stream.entries()]
        assert lsns == list(range(1, 31))

    def test_crash_scan_rebuilds_exactly(self):
        stream, live = build()
        rebuilt, _n = stream.crash_scan("s")
        assert rebuilt.dump_table("c") == live.dump_table("c")

    def test_scan_cost_bounded_by_in_stream_checkpoint(self):
        stream, _live = build()
        total = sum(1 for _ in stream.entries())
        assert stream.scan_cost_with_checkpoint() < total

    def test_no_checkpoint_scans_all(self):
        stream, _live = build(checkpoint_at=())
        assert stream.latest_checkpoint() is None
        assert stream.scan_cost_with_checkpoint() == 30

    def test_reusable_mode_unchanged(self):
        stream, live = build(write_once=False)
        cp = stream.latest_checkpoint()
        assert isinstance(cp, Checkpoint)
        # checkpoints live in the known location, not the stream
        pages = [stream.pages.read(a) for a in range(len(stream.pages))]
        assert not any(isinstance(p, Checkpoint) for p in pages)

    def test_index_rebuild_skips_checkpoint_pages(self):
        stream, _live = build()
        index = ServerLogIndex()
        index.rebuild(stream)
        for lsn in range(1, 31):
            assert index.locate("c", lsn) is not None

    def test_all_pointers_backward_write_once_safe(self):
        """Checkpoint track_index only ever names later tracks."""
        stream, _live = build()
        for address in range(len(stream.pages)):
            page = stream.pages.read(address)
            if isinstance(page, Checkpoint):
                assert page.track_index == address + 1
