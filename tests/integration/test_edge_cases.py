"""Edge cases across packages that the focused suites do not reach."""

import random

import pytest

from repro.baselines.local_log import LocalDiskLog
from repro.baselines.unbatched import UnbatchedBackend
from repro.client.log_client import SimLogClient
from repro.client.node import ClientNode
from repro.client.dumps import DumpManager
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import DualLan, Lan
from repro.net.packet import Packet
from repro.server.log_server import SimLogServer
from repro.server.space import SpaceManager, TruncationPoint
from repro.sim.kernel import Simulator
from repro.sim.resources import Channel, Resource
from repro.storage.disk import SLOW_1987_DISK, SimDisk
from repro.storage.log_stream import DiskLogStream, StreamEntry
from repro.core.records import StoredRecord

from ..conftest import drain


class TestDualLanBothDown:
    def test_packets_dropped_not_crashed(self):
        sim = Simulator()
        a, b = Lan(sim, name="a"), Lan(sim, name="b")
        dual = DualLan(a, b)
        dual.attach("x")
        nic_a, nic_b = dual.attach("y")
        a.crash()
        b.crash()

        def sender():
            yield from dual.send(Packet(src="x", dst="y", conn_id=1,
                                        seq=1, allocation=1, payload=None))

        proc = sim.spawn(sender())
        sim.run()
        assert proc.ok
        assert len(nic_a) == 0 and len(nic_b) == 0


class TestChannelHook:
    def test_consume_hook_called_on_both_paths(self):
        sim = Simulator()
        ch = Channel(sim)
        consumed = []
        ch.consume_hook = lambda: consumed.append(ch.total_got)
        # path 1: item waits for getter
        ch.put("a")

        def getter():
            value = yield ch.get()
            return value

        p = sim.spawn(getter())
        sim.run()
        assert p.value == "a"
        # path 2: getter waits for item
        p2 = sim.spawn(getter())
        sim.run()
        ch.put("b")
        sim.run()
        assert p2.value == "b"
        assert consumed == [1, 2]


class TestResourceQueueAccounting:
    def test_busy_integral_continuous_across_handoff(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(1.0)

        for _ in range(3):
            sim.spawn(worker())
        sim.run()
        assert res.busy_integral() == pytest.approx(3.0)
        assert res.utilization() == pytest.approx(1.0)


class TestLocalDiskLogScan:
    def test_scan_backward_for_recovery_manager(self):
        sim = Simulator()
        log = LocalDiskLog(sim, SimDisk(sim, SLOW_1987_DISK))

        def main():
            yield from log.log(b"B|1")
            yield from log.log(b"C|1")
            yield from log.force()
            records = yield from log.scan_backward()
            return [r.data for r in records]

        proc = sim.spawn(main())
        sim.run()
        assert proc.value == [b"C|1", b"B|1"]

    def test_recovery_manager_over_local_log(self):
        """The WAL layer runs unchanged over the local baseline."""
        sim = Simulator()
        log = LocalDiskLog(sim, SimDisk(sim, SLOW_1987_DISK))
        node = ClientNode(log)

        def main():
            yield from node.run_transaction([("a", "1")])
            txn = yield from node.rm.begin()
            yield from node.rm.update(txn, "a", "dirty")
            node.crash()
            summary = yield from node.restart()
            return summary

        proc = sim.spawn(main())
        sim.run()
        assert proc.ok
        assert node.db.stable["a"] == "1"


class TestUnbatchedLifecycle:
    def test_crash_restart_through_adapter(self):
        sim = Simulator()
        lan = Lan(sim)
        for i in range(2):
            SimLogServer(sim, lan, f"s{i}")
        client = SimLogClient(
            sim, lan, "c", ["s0", "s1"],
            ReplicationConfig(2, 2, delta=16), make_generator(3),
        )
        backend = UnbatchedBackend(client)
        result = {}

        def main():
            yield from client.initialize()
            lsn = yield from backend.log(b"x")
            backend.crash()
            yield from backend.restart()
            record = yield from backend.read(lsn)
            result["data"] = record.data

        sim.spawn(main())
        sim.run(until=60)
        assert result["data"] == b"x"


class TestSpaceManagerInterplay:
    def test_spool_then_discard_upgrades_tracks(self):
        stream = DiskLogStream(track_bytes=200)
        for lsn in range(1, 21):
            stream.append(StreamEntry("write", "c", StoredRecord(
                lsn=lsn, epoch=1, data=b"x" * 40)))
        stream.seal_track()
        manager = SpaceManager(stream)
        manager.declare("c", TruncationPoint(21, 1))
        manager.spool_to_offline()
        spooled = manager.report.spooled_tracks
        assert spooled > 0
        # a later dump allows discarding even the spooled tracks
        manager.declare("c", TruncationPoint(21, 21))
        manager.discard_unneeded()
        states = set(manager.track_states().values())
        assert states == {"discarded"}
        assert manager.offline_store == {}


class TestMultipleDumps:
    def test_latest_dump_governs_recovery(self):
        node, _ = ClientNode.direct(m=3, n=2)
        dumps = DumpManager(node.rm)
        drain(node.run_transaction([("k", "old")]))
        drain(dumps.take_dump())
        drain(node.run_transaction([("k", "mid")]))
        second = drain(dumps.take_dump())
        drain(node.run_transaction([("k", "new")]))
        assert dumps.latest is second
        node.db.stable.clear()
        summary = drain(dumps.media_recovery())
        assert summary["replayed_from_lsn"] == second.replay_from
        assert node.db.stable["k"] == "new"


class TestRotateNoop:
    def test_rotate_keeping_same_set_is_cheap(self):
        sim = Simulator()
        lan = Lan(sim)
        for i in range(2):
            SimLogServer(sim, lan, f"s{i}")
        client = SimLogClient(
            sim, lan, "c", ["s0", "s1"],
            ReplicationConfig(2, 2, delta=16), make_generator(3),
        )
        result = {}

        def main():
            yield from client.initialize()
            yield from client.log(b"x")
            yield from client.force()
            before = client.write_set
            # with M == N there is nowhere else to go
            yield from client.rotate_write_set()
            result["same"] = set(client.write_set) == set(before)
            yield from client.log(b"y")
            yield from client.force()

        proc = sim.spawn(main())
        sim.run(until=60)
        assert proc.ok
        assert result["same"]
