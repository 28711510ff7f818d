"""Tests for the server's append-forest LSN index."""

import random

from repro.core.records import StoredRecord
from repro.server.index import ClientLogIndex, ServerLogIndex
from repro.storage.log_stream import DiskLogStream, StreamEntry


def entry(client, lsn, epoch=1, data=b"x" * 40):
    return StreamEntry("write", client,
                       StoredRecord(lsn=lsn, epoch=epoch, data=data))


class TestClientLogIndex:
    def test_consecutive_runs_become_range_nodes(self):
        index = ClientLogIndex("c1")
        index.note_records(0, [1, 2, 3, 4])
        index.note_records(1, [5, 6, 7])
        assert len(index.forest) == 2  # one node per track
        for lsn in range(1, 5):
            assert index.locate(lsn) == 0
        for lsn in range(5, 8):
            assert index.locate(lsn) == 1

    def test_gaps_split_runs(self):
        index = ClientLogIndex("c1")
        index.note_records(0, [1, 2, 10, 11])  # NewInterval jump
        assert index.locate(2) == 0
        assert index.locate(10) == 0
        assert index.locate(5) is None

    def test_rewritten_lsn_goes_to_overlay(self):
        index = ClientLogIndex("c1")
        index.note_records(0, [1, 2, 3])
        index.note_records(1, [3, 4])  # recovery copy of 3 + guard 4
        assert index.locate(3) == 1  # overlay wins
        assert index.locate(4) == 1
        assert index.locate(2) == 0
        index.forest.check_invariants()

    def test_unknown_lsn_is_none(self):
        index = ClientLogIndex("c1")
        assert index.locate(99) is None


class TestServerLogIndex:
    def test_on_seal_indexes_all_clients(self):
        index = ServerLogIndex()
        index.on_seal(7, (entry("a", 1), entry("b", 10), entry("a", 2)))
        assert index.locate("a", 1) == 7
        assert index.locate("a", 2) == 7
        assert index.locate("b", 10) == 7
        assert index.locate("ghost", 1) is None
        assert index.tracks_indexed == 1

    def test_install_markers_skipped(self):
        index = ServerLogIndex()
        index.on_seal(0, (
            entry("a", 1),
            StreamEntry("install", "a", None, 2),
        ))
        assert index.locate("a", 1) == 0

    def test_copy_entries_indexed(self):
        index = ServerLogIndex()
        index.on_seal(0, (entry("a", 1),))
        copy = StreamEntry("copy", "a", StoredRecord(lsn=1, epoch=2, data=b"c"))
        index.on_seal(1, (copy,))
        assert index.locate("a", 1) == 1  # the re-copied bytes

    def test_rebuild_matches_live_index(self):
        stream = DiskLogStream(track_bytes=200)
        live = ServerLogIndex()
        stream.on_seal = live.on_seal
        rng = random.Random(0)
        lsn = {"a": 0, "b": 0}
        for _ in range(60):
            client = rng.choice(["a", "b"])
            lsn[client] += 1
            stream.append(entry(client, lsn[client]))
        stream.seal_track()
        rebuilt = ServerLogIndex()
        rebuilt.rebuild(stream)
        for client, high in lsn.items():
            for q in range(1, high + 1):
                assert rebuilt.locate(client, q) == live.locate(client, q)
        assert rebuilt.tracks_indexed == live.tracks_indexed


class TestIndexOnStream:
    def test_seal_callback_fires(self):
        stream = DiskLogStream(track_bytes=150)
        seals = []
        stream.on_seal = lambda addr, entries: seals.append(
            (addr, len(entries)))
        for lsn in range(1, 7):
            stream.append(entry("c", lsn))
        stream.seal_track()
        assert len(seals) >= 2
        assert seals[0][0] == 0
