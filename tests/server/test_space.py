"""Tests for log space management (Section 5.3)."""

import pytest

from repro.core.records import StoredRecord
from repro.server.space import SpaceManager, TruncationPoint
from repro.storage.log_stream import DiskLogStream, StreamEntry


def write_entry(client, lsn, epoch=1, data=b"x" * 40):
    return StreamEntry(
        "write", client,
        StoredRecord(lsn=lsn, epoch=epoch, data=data),
    )


def build_stream(per_client=20, clients=("c1", "c2"), track_bytes=200):
    stream = DiskLogStream(track_bytes=track_bytes)
    for lsn in range(1, per_client + 1):
        for client in clients:
            stream.append(write_entry(client, lsn))
    stream.seal_track()
    return stream


class TestTruncationPoint:
    def test_invariant(self):
        with pytest.raises(ValueError):
            TruncationPoint(node_recovery_lsn=5, media_recovery_lsn=9)

    def test_declarations_monotone(self):
        manager = SpaceManager(DiskLogStream())
        manager.declare("c1", TruncationPoint(10, 5))
        manager.declare("c1", TruncationPoint(8, 3))  # older info
        point = manager.point_for("c1")
        assert point.node_recovery_lsn == 10
        assert point.media_recovery_lsn == 5

    def test_unknown_client_needs_everything(self):
        manager = SpaceManager(DiskLogStream())
        assert manager.point_for("ghost") == TruncationPoint(1, 1)


class TestSpooling:
    def test_spools_tracks_below_node_recovery_point(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(15, 1))
        manager.declare("c2", TruncationPoint(15, 1))
        report = manager.spool_to_offline()
        assert report.spooled_tracks > 0
        assert report.online_tracks + report.spooled_tracks == len(stream.pages)
        # spooled data is preserved in offline storage
        assert sum(len(t) for t in manager.offline_store.values()) > 0

    def test_nothing_spooled_without_declarations(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        report = manager.spool_to_offline()
        assert report.spooled_tracks == 0

    def test_mixed_track_kept_online(self):
        """A track with one still-needed record stays online."""
        stream = DiskLogStream(track_bytes=10_000)
        for lsn in range(1, 5):
            stream.append(write_entry("c1", lsn))
        stream.seal_track()
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(4, 1))  # record 4 needed
        report = manager.spool_to_offline()
        assert report.spooled_tracks == 0
        assert report.online_tracks == 1

    def test_spooled_still_counts_for_media_recovery(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(21, 1))
        manager.declare("c2", TruncationPoint(21, 1))
        manager.spool_to_offline()
        # node recovery reads nothing online; media reads everything
        assert manager.online_entries_for_node_recovery("c1") == 0
        assert manager.entries_for_media_recovery("c1") == 20


class TestDiscarding:
    def test_discards_below_media_point(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(21, 21))
        manager.declare("c2", TruncationPoint(21, 21))
        report = manager.discard_unneeded()
        assert report.discarded_tracks == len(stream.pages)
        assert report.online_tracks == 0

    def test_discard_respects_most_conservative_client(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(21, 21))
        manager.declare("c2", TruncationPoint(5, 1))  # needs everything
        report = manager.discard_unneeded()
        # every track interleaves both clients, so nothing can go
        assert report.discarded_tracks == 0

    def test_states_reported(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(10, 10))
        manager.declare("c2", TruncationPoint(10, 10))
        manager.discard_unneeded()
        states = manager.track_states()
        assert set(states.values()) <= {"online", "offline", "discarded"}
        assert "discarded" in states.values()
        assert "online" in states.values()


class TestCompression:
    def test_counts_superseded_records(self):
        stream = DiskLogStream(track_bytes=10_000)
        stream.append(write_entry("c1", 1, epoch=1))
        stream.append(write_entry("c1", 2, epoch=1))
        # recovery copies record 2 under epoch 3
        stream.append(write_entry("c1", 2, epoch=3))
        manager = SpaceManager(stream)
        assert manager.compress_superseded() == 1
        assert manager.report.compressed_bytes > 0

    def test_no_duplicates_nothing_to_compress(self):
        stream = build_stream()
        manager = SpaceManager(stream)
        assert manager.compress_superseded() == 0


class TestRecoveryCosts:
    def test_dump_bounds_media_recovery_reads(self):
        """The paper's point: dumps limit total log for media recovery."""
        stream = build_stream(per_client=30)
        manager = SpaceManager(stream)
        before = manager.entries_for_media_recovery("c1")
        manager.declare("c1", TruncationPoint(21, 21))  # dump at LSN 20
        after = manager.entries_for_media_recovery("c1")
        assert before == 30
        assert after == 10

    def test_checkpoint_bounds_node_recovery_reads(self):
        stream = build_stream(per_client=30)
        manager = SpaceManager(stream)
        manager.declare("c1", TruncationPoint(26, 1))
        assert manager.online_entries_for_node_recovery("c1") == 5
