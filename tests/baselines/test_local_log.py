"""Tests for the local-disk logging baseline."""

import pytest

from repro.baselines.local_log import LocalDiskLog
from repro.core.errors import LSNNotWritten
from repro.sim.kernel import Simulator
from repro.storage.disk import SLOW_1987_DISK, MirroredDisks, SimDisk


def build(mirrored=False):
    sim = Simulator()
    disk = (MirroredDisks(sim, SLOW_1987_DISK) if mirrored
            else SimDisk(sim, SLOW_1987_DISK))
    return sim, disk, LocalDiskLog(sim, disk)


class TestLocalDiskLog:
    def test_log_force_read(self):
        sim, disk, log = build()
        result = {}

        def main():
            lsn = yield from log.log(b"data")
            yield from log.force()
            record = yield from log.read(lsn)
            result["data"] = record.data

        sim.spawn(main())
        sim.run()
        assert result["data"] == b"data"

    def test_force_pays_disk_time(self):
        sim, disk, log = build()

        def main():
            yield from log.log(b"x" * 700)
            yield from log.force()

        sim.spawn(main())
        sim.run()
        assert sim.now == pytest.approx(
            SLOW_1987_DISK.forced_record_write_s(700))
        assert disk.forces == 1

    def test_group_commit_single_disk_operation(self):
        """Many buffered records, one force, one disk write."""
        sim, disk, log = build()

        def main():
            for i in range(7):
                yield from log.log(b"u" * 100)
            yield from log.force()

        sim.spawn(main())
        sim.run()
        assert disk.forces == 1
        assert disk.bytes_written == 700

    def test_empty_force_is_fast(self):
        sim, disk, log = build()

        def main():
            yield from log.force()

        sim.spawn(main())
        sim.run()
        assert disk.forces == 0

    def test_crash_loses_unforced_tail(self):
        sim, disk, log = build()
        result = {}

        def main():
            kept = yield from log.log(b"kept")
            yield from log.force()
            lost = yield from log.log(b"lost")
            log.crash()
            result["kept"] = kept
            result["lost"] = lost
            record = yield from log.read(kept)
            result["kept_data"] = record.data
            try:
                yield from log.read(lost)
            except LSNNotWritten:
                result["lost_gone"] = True

        sim.spawn(main())
        sim.run(until=10)
        assert result["kept_data"] == b"kept"
        assert result.get("lost_gone")

    def test_lsns_reassigned_after_crash(self):
        sim, disk, log = build()
        result = {}

        def main():
            yield from log.log(b"a")
            yield from log.force()
            yield from log.log(b"b")  # lost
            log.crash()
            lsn = yield from log.log(b"c")
            result["lsn"] = lsn

        sim.spawn(main())
        sim.run(until=10)
        assert result["lsn"] == 2  # reuses the lost record's slot

    def test_mirrored_disks_both_written(self):
        sim, disks, log = build(mirrored=True)

        def main():
            yield from log.log(b"x" * 100)
            yield from log.force()

        sim.spawn(main())
        sim.run()
        assert disks.primary.forces == 1
        assert disks.secondary.forces == 1

    def test_iter_backward(self):
        sim, disk, log = build()
        result = {}

        def main():
            yield from log.log(b"1")
            yield from log.log(b"2")
            yield from log.force()
            result["datas"] = [r.data for r in log.iter_backward()]

        sim.spawn(main())
        sim.run()
        assert result["datas"] == [b"2", b"1"]

    def test_force_latency_recorded(self):
        sim, disk, log = build()

        def main():
            yield from log.log(b"x")
            yield from log.force()

        sim.spawn(main())
        sim.run()
        assert log.metrics.latency("local.force").count == 1
