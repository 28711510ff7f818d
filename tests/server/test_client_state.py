"""Tests for per-client gap detection on the server."""

from repro.server.client_state import ClientProtocolState


class TestClassifyBatch:
    def test_fresh_client_accepts_anything(self):
        state = ClientProtocolState("c1")
        assert state.classify_batch(5, 9, 1) == "contiguous"

    def test_contiguous_extension(self):
        state = ClientProtocolState("c1")
        state.note_stored(3, 1)
        assert state.classify_batch(4, 6, 1) == "contiguous"

    def test_gap_detected(self):
        state = ClientProtocolState("c1")
        state.note_stored(3, 1)
        assert state.classify_batch(6, 8, 1) == "gap"

    def test_duplicate_detected(self):
        state = ClientProtocolState("c1")
        state.note_stored(5, 1)
        assert state.classify_batch(2, 4, 1) == "duplicate"
        assert state.classify_batch(5, 5, 1) == "duplicate"

    def test_overlap_detected(self):
        state = ClientProtocolState("c1")
        state.note_stored(5, 1)
        assert state.classify_batch(4, 8, 1) == "overlap"

    def test_new_epoch_always_contiguous(self):
        # recovery installs a new epoch wherever it lands
        state = ClientProtocolState("c1")
        state.note_stored(5, 1)
        assert state.classify_batch(3, 4, 2) == "contiguous"

    def test_note_stored_advances(self):
        state = ClientProtocolState("c1")
        state.note_stored(7, 2)
        assert state.expected_lsn == 8
        assert state.current_epoch == 2
        assert state.acked_high == 7

    def test_acked_high_monotone(self):
        state = ClientProtocolState("c1")
        state.note_stored(7, 1)
        state.note_stored(5, 1)  # out-of-order bookkeeping call
        assert state.acked_high == 7

    def test_new_interval_resets_position(self):
        state = ClientProtocolState("c1")
        state.note_stored(3, 1)
        state.start_new_interval(10, 1)
        assert state.classify_batch(10, 12, 1) == "contiguous"
        assert state.classify_batch(8, 9, 1) == "duplicate"
