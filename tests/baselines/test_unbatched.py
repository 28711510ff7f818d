"""Tests for the per-record-RPC baseline (the Section 4.1 strawman)."""

import random

from repro.baselines.unbatched import UnbatchedBackend
from repro.client.backends import SimLogBackend
from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet


def build(metrics):
    sim = Simulator()
    lan = Lan(sim)
    for i in range(2):
        SimLogServer(sim, lan, f"s{i}", metrics=metrics)
    client = SimLogClient(
        sim, lan, "c1", ["s0", "s1"],
        ReplicationConfig(2, 2, delta=32), make_generator(3),
        metrics=metrics,
    )
    return sim, client


class TestUnbatchedBackend:
    def test_forces_every_record(self):
        metrics = MetricSet()
        sim, client = build(metrics)
        backend = UnbatchedBackend(client)

        def main():
            yield from client.initialize()
            for i in range(5):
                yield from backend.log(b"r%d" % i)

        sim.spawn(main())
        sim.run(until=60)
        assert client.forces == 5

    def test_message_count_versus_grouped(self):
        """Per-record RPCs send ~records× more write messages."""
        def run(unbatched):
            metrics = MetricSet()
            sim, client = build(metrics)
            backend = (UnbatchedBackend(client) if unbatched
                       else SimLogBackend(client))

            def main():
                yield from client.initialize()
                for i in range(14):
                    yield from backend.log(b"u" * 100)
                yield from backend.force()

            sim.spawn(main())
            sim.run(until=60)
            return (metrics.counter("s0.force_msgs").count
                    + metrics.counter("s0.write_msgs").count)

        grouped = run(False)
        unbatched = run(True)
        assert unbatched >= 7 * grouped

    def test_reads_still_work(self):
        metrics = MetricSet()
        sim, client = build(metrics)
        backend = UnbatchedBackend(client)
        result = {}

        def main():
            yield from client.initialize()
            lsn = yield from backend.log(b"one")
            record = yield from backend.read(lsn)
            result["data"] = record.data

        sim.spawn(main())
        sim.run(until=60)
        assert result["data"] == b"one"
