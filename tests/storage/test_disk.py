"""Tests for the disk timing model."""

import pytest

from repro.sim.kernel import Simulator
from repro.storage.disk import (
    FAST_1987_DISK,
    SLOW_1987_DISK,
    DiskParams,
    MirroredDisks,
    SimDisk,
)


class TestDiskParams:
    def test_rotation_time(self):
        assert DiskParams(rpm=3600).rotation_s == pytest.approx(1 / 60)
        assert DiskParams(rpm=7200).rotation_s == pytest.approx(1 / 120)

    def test_transfer_scales_with_bytes(self):
        p = DiskParams(rpm=3600, track_bytes=8192)
        assert p.transfer_s(8192) == pytest.approx(p.rotation_s)
        assert p.transfer_s(4096) == pytest.approx(p.rotation_s / 2)

    def test_sequential_track_write_components(self):
        p = SLOW_1987_DISK
        expected = p.track_to_track_seek_s + p.half_rotation_s + p.rotation_s
        assert p.sequential_track_write_s() == pytest.approx(expected)

    def test_random_read_uses_average_seek(self):
        p = SLOW_1987_DISK
        assert p.random_read_s(512) > p.avg_seek_s

    def test_forced_write_pays_rotational_latency(self):
        """The Section 4.1 point: independent forces are expensive."""
        p = SLOW_1987_DISK
        force = p.forced_record_write_s(700)
        assert force >= p.half_rotation_s
        # 170 forces/second would need a service time below 5.9 ms
        assert force > 1 / 170.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskParams(rpm=0)
        with pytest.raises(ValueError):
            DiskParams(track_bytes=0)
        with pytest.raises(ValueError):
            DiskParams(avg_seek_s=-1)


class TestSimDisk:
    def test_sequential_writes_serialize(self):
        sim = Simulator()
        disk = SimDisk(sim, SLOW_1987_DISK)

        def writer():
            for _ in range(4):
                yield from disk.write_track()

        sim.spawn(writer())
        sim.run()
        assert sim.now == pytest.approx(
            4 * SLOW_1987_DISK.sequential_track_write_s()
        )
        assert disk.tracks_written == 4
        assert disk.bytes_written == 4 * SLOW_1987_DISK.track_bytes

    def test_partial_track_write(self):
        sim = Simulator()
        disk = SimDisk(sim, SLOW_1987_DISK)

        def writer():
            yield from disk.write_track(1000)

        sim.spawn(writer())
        sim.run()
        assert disk.bytes_written == 1000
        assert sim.now < SLOW_1987_DISK.sequential_track_write_s()

    def test_utilization_tracked(self):
        sim = Simulator()
        disk = SimDisk(sim, SLOW_1987_DISK)

        def writer():
            yield from disk.write_track()

        sim.spawn(writer())
        sim.run(until=1.0)
        expected = SLOW_1987_DISK.sequential_track_write_s() / 1.0
        assert disk.utilization() == pytest.approx(expected)

    def test_fast_disk_faster(self):
        assert (FAST_1987_DISK.sequential_track_write_s()
                < SLOW_1987_DISK.sequential_track_write_s() * 2)
        # per byte the fast disk is much cheaper
        slow_per_byte = (SLOW_1987_DISK.sequential_track_write_s()
                         / SLOW_1987_DISK.track_bytes)
        fast_per_byte = (FAST_1987_DISK.sequential_track_write_s()
                         / FAST_1987_DISK.track_bytes)
        assert fast_per_byte < slow_per_byte

    def test_reads_counted(self):
        sim = Simulator()
        disk = SimDisk(sim, SLOW_1987_DISK)

        def reader():
            yield from disk.random_read(4096)

        sim.spawn(reader())
        sim.run()
        assert disk.reads == 1
        assert disk.bytes_read == 4096


class TestMirroredDisks:
    def test_write_waits_for_both(self):
        sim = Simulator()
        mirror = MirroredDisks(sim, SLOW_1987_DISK)

        def writer():
            yield from mirror.write_track()

        sim.spawn(writer())
        sim.run()
        # both writes run concurrently: elapsed = one track write
        assert sim.now == pytest.approx(
            SLOW_1987_DISK.sequential_track_write_s()
        )
        assert mirror.primary.tracks_written == 1
        assert mirror.secondary.tracks_written == 1

    def test_force_record_hits_both(self):
        sim = Simulator()
        mirror = MirroredDisks(sim, SLOW_1987_DISK)

        def writer():
            yield from mirror.force_record(700)

        sim.spawn(writer())
        sim.run()
        assert mirror.primary.forces == 1
        assert mirror.secondary.forces == 1

    def test_read_uses_primary(self):
        sim = Simulator()
        mirror = MirroredDisks(sim, SLOW_1987_DISK)

        def reader():
            yield from mirror.random_read(512)

        sim.spawn(reader())
        sim.run()
        assert mirror.primary.reads == 1
        assert mirror.secondary.reads == 0

    def test_params_exposed(self):
        sim = Simulator()
        mirror = MirroredDisks(sim, FAST_1987_DISK)
        assert mirror.params.track_bytes == FAST_1987_DISK.track_bytes
