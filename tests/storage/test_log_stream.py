"""Tests for the interleaved on-disk log stream and crash scan."""

import pytest

from repro.core.store import LogServerStore
from repro.core.records import StoredRecord
from repro.storage.log_stream import DiskLogStream, StreamEntry


def write_entry(client, lsn, epoch=1, present=True, data=b"x" * 50):
    return StreamEntry(
        "write", client,
        StoredRecord(lsn=lsn, epoch=epoch, present=present,
                     data=data if present else b""),
    )


class TestStreamEntry:
    def test_write_requires_record(self):
        with pytest.raises(ValueError):
            StreamEntry("write", "c1")

    def test_install_requires_epoch(self):
        with pytest.raises(ValueError):
            StreamEntry("install", "c1")

    def test_byte_size(self):
        entry = write_entry("c1", 1, data=b"x" * 100)
        assert entry.byte_size == 124  # 24 header + 100 payload


class TestTrackSealing:
    def test_entries_group_into_tracks(self):
        stream = DiskLogStream(track_bytes=300)
        for lsn in range(1, 9):  # 8 × 74 bytes
            stream.append(write_entry("c1", lsn))
        # 4 entries (296 B) fit per track: one sealed, four still open
        assert len(stream.pages) == 1
        assert stream.open_entry_count == 4
        stream.append(write_entry("c1", 9))  # 5th overflows: seals
        assert len(stream.pages) == 2
        assert stream.open_entry_count == 1

    def test_oversized_entry_gets_own_track(self):
        stream = DiskLogStream(track_bytes=100)
        stream.append(write_entry("c1", 1, data=b"y" * 500))
        assert len(stream.pages) == 1

    def test_seal_empty_is_noop(self):
        stream = DiskLogStream()
        assert stream.seal_track() is None

    def test_interleaves_clients(self):
        stream = DiskLogStream(track_bytes=10_000)
        stream.append(write_entry("c1", 1))
        stream.append(write_entry("c2", 7))
        stream.append(write_entry("c1", 2))
        stream.seal_track()
        entries = list(stream.entries())
        assert [(e.client_id, e.record.lsn) for e in entries] == [
            ("c1", 1), ("c2", 7), ("c1", 2),
        ]


class TestCrashScan:
    def build_reference(self):
        """A live store + stream with writes, copies and installs."""
        stream = DiskLogStream(track_bytes=256)
        live = LogServerStore("s1")
        for lsn in range(1, 20):
            live.server_write_log("c1", lsn, 1, True, b"x" * 40)
            stream.append(write_entry("c1", lsn, data=b"x" * 40))
        live.server_write_log("c2", 1, 2, True, b"z" * 40)
        stream.append(write_entry("c2", 1, epoch=2, data=b"z" * 40))
        # recovery traffic for c1
        live.copy_log("c1", 19, 3, True, b"x" * 40)
        stream.append(StreamEntry("copy", "c1", StoredRecord(
            lsn=19, epoch=3, present=True, data=b"x" * 40)))
        live.copy_log("c1", 20, 3, False)
        stream.append(StreamEntry("copy", "c1", StoredRecord(
            lsn=20, epoch=3, present=False)))
        live.install_copies("c1", 3)
        stream.append(StreamEntry("install", "c1", None, 3))
        return stream, live

    def test_rebuild_equals_live_state(self):
        stream, live = self.build_reference()
        rebuilt, replayed = stream.crash_scan("s1")
        assert rebuilt.dump_table("c1") == live.dump_table("c1")
        assert rebuilt.dump_table("c2") == live.dump_table("c2")
        assert replayed == 23

    def test_rebuild_includes_open_track_with_nvram(self):
        """NVRAM makes the unsealed tail durable."""
        stream = DiskLogStream(track_bytes=100_000)  # nothing seals
        stream.append(write_entry("c1", 1))
        rebuilt, _ = stream.crash_scan("s1")
        assert rebuilt.client_state("c1").high_lsn == 1

    def test_rebuild_without_nvram_loses_open_track(self):
        """Without NVRAM the open track is volatile (the footnote)."""
        stream = DiskLogStream(track_bytes=200)
        for lsn in range(1, 6):
            stream.append(write_entry("c1", lsn))
        sealed_high = max(
            e.record.lsn for _a, track in stream.pages.scan()
            for e in track
        )
        rebuilt, _ = stream.crash_scan("s1", lose_open_track=True)
        assert rebuilt.client_state("c1").high_lsn == sealed_high
        assert sealed_high < 5  # records were genuinely lost

    def test_staged_but_uninstalled_copies_stay_invisible(self):
        stream = DiskLogStream(track_bytes=256)
        stream.append(write_entry("c1", 1))
        stream.append(StreamEntry("copy", "c1", StoredRecord(
            lsn=1, epoch=2, present=True, data=b"c")))
        # crash before install
        rebuilt, _ = stream.crash_scan("s1")
        assert rebuilt.server_read_log("c1", 1).epoch == 1


class TestCheckpoints:
    def test_checkpoint_bounds_scan(self):
        stream = DiskLogStream(track_bytes=256)
        live = LogServerStore("s1")
        for lsn in range(1, 40):
            live.server_write_log("c1", lsn, 1, True, b"x" * 40)
            stream.append(write_entry("c1", lsn, data=b"x" * 40))
            if lsn == 20:
                stream.checkpoint(live)
        full = sum(1 for _ in stream.entries())
        after_cp = stream.scan_cost_with_checkpoint()
        assert after_cp < full

    def test_checkpoint_snapshot_matches_store_intervals(self):
        stream = DiskLogStream(track_bytes=256)
        live = LogServerStore("s1")
        for lsn in range(1, 10):
            live.server_write_log("c1", lsn, 1, True, b"d")
            stream.append(write_entry("c1", lsn, data=b"d"))
        cp = stream.checkpoint(live)
        assert cp.intervals == {"c1": ((1, 1, 9),)}

    def test_no_checkpoint_scans_everything(self):
        stream = DiskLogStream(track_bytes=256)
        for lsn in range(1, 10):
            stream.append(write_entry("c1", lsn))
        assert stream.scan_cost_with_checkpoint() == 9
