"""Tests for the non-volatile buffer model."""

import pytest

from repro.sim.kernel import Simulator
from repro.storage.nvram import NvramBuffer, NvramFullError


@pytest.fixture
def nvram():
    return NvramBuffer(Simulator(), capacity_bytes=16 * 1024,
                       reserved_for_intervals=1024)


class TestAppendDrain:
    def test_append_accumulates(self, nvram):
        nvram.append(1000)
        nvram.append(500)
        assert nvram.level == 1500
        assert nvram.total_appended == 1500

    def test_overflow_sheds(self, nvram):
        nvram.append(nvram.data_capacity)
        with pytest.raises(NvramFullError):
            nvram.append(1)
        assert nvram.sheds == 1

    def test_negative_append_rejected(self, nvram):
        with pytest.raises(ValueError):
            nvram.append(-1)

    def test_drain_partial(self, nvram):
        nvram.append(5000)
        assert nvram.drain(3000) == 3000
        assert nvram.level == 2000

    def test_drain_more_than_level(self, nvram):
        nvram.append(100)
        assert nvram.drain(1000) == 100
        assert nvram.level == 0

    def test_track_ready(self, nvram):
        assert not nvram.track_ready(8192)
        nvram.append(8192)
        assert nvram.track_ready(8192)

    def test_free_accounts_reservation(self, nvram):
        assert nvram.free == 16 * 1024 - 1024
        nvram.append(100)
        assert nvram.free == 16 * 1024 - 1024 - 100


class TestIntervalRegion:
    def test_roundtrip(self, nvram):
        nvram.store_intervals({"c1": [(1, 1, 5)]})
        assert nvram.load_intervals() == {"c1": [(1, 1, 5)]}

    def test_crash_preserves_level_and_intervals(self, nvram):
        nvram.append(2000)
        nvram.store_intervals("snapshot")
        level, intervals = nvram.crash_preserves()
        assert level == 2000
        assert intervals == "snapshot"


class TestValidation:
    def test_capacity_must_exceed_reservation(self):
        with pytest.raises(ValueError):
            NvramBuffer(Simulator(), capacity_bytes=1024,
                        reserved_for_intervals=1024)

    def test_occupancy_tracks_level(self):
        sim = Simulator()
        nvram = NvramBuffer(sim, capacity_bytes=16 * 1024)
        nvram.append(1000)
        assert nvram.occupancy.current == 1000
        nvram.drain(1000)
        assert nvram.occupancy.current == 0
        assert nvram.occupancy.peak == 1000
