"""Tests for the backend adapters (direct and simulated)."""

from repro.client.backends import DirectLogBackend, SimLogBackend
from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator

from ..conftest import build_direct_log, drain


class TestDirectLogBackend:
    def test_log_force_read(self):
        log, _ = build_direct_log()
        backend = DirectLogBackend(log)
        lsn = drain(backend.log(b"x", "data"))
        drain(backend.force())
        record = drain(backend.read(lsn))
        assert record.data == b"x"

    def test_end_of_log_delegates(self):
        log, _ = build_direct_log()
        backend = DirectLogBackend(log)
        assert backend.end_of_log() == log.end_of_log()

    def test_scan_backward(self):
        log, _ = build_direct_log()
        backend = DirectLogBackend(log)
        drain(backend.log(b"1"))
        drain(backend.log(b"2"))
        datas = [record.data for record in drain(backend.scan_backward())]
        assert datas == [b"2", b"1"]

    def test_crash_restart_cycle(self):
        log, _ = build_direct_log()
        backend = DirectLogBackend(log)
        lsn = drain(backend.log(b"keep"))
        backend.crash()
        drain(backend.restart())
        assert drain(backend.read(lsn)).data == b"keep"


class TestSimLogBackend:
    def build(self):
        sim = Simulator()
        lan = Lan(sim)
        for i in range(3):
            SimLogServer(sim, lan, f"s{i}")
        client = SimLogClient(
            sim, lan, "c1", [f"s{i}" for i in range(3)],
            ReplicationConfig(3, 2, delta=8), make_generator(3),
        )
        return sim, SimLogBackend(client)

    def test_roundtrip(self):
        sim, backend = self.build()
        result = {}

        def main():
            yield from backend.client.initialize()
            lsn = yield from backend.log(b"net", "data")
            yield from backend.force()
            record = yield from backend.read(lsn)
            result["data"] = record.data

        sim.spawn(main())
        sim.run(until=30)
        assert result["data"] == b"net"

    def test_scan_backward_collects_present_records(self):
        sim, backend = self.build()
        result = {}

        def main():
            yield from backend.client.initialize()
            yield from backend.log(b"one")
            yield from backend.log(b"two")
            yield from backend.force()
            records = yield from backend.scan_backward()
            result["datas"] = [r.data for r in records]

        sim.spawn(main())
        sim.run(until=30)
        assert result["datas"] == [b"two", b"one"]
