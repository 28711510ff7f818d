"""Group commit: concurrent transaction streams share one log process.

"Recovery managers commonly support the grouping of log record writes"
— when several transactions on one node commit close together, a
single ForceLog can carry (and a single NewHighLSN can acknowledge)
all of them, because acknowledgments are cumulative.
"""

from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet


def build():
    sim = Simulator()
    lan = Lan(sim)
    metrics = MetricSet()
    for i in range(2):
        SimLogServer(sim, lan, f"s{i}", metrics=metrics)
    client = SimLogClient(
        sim, lan, "c", ["s0", "s1"],
        ReplicationConfig(2, 2, delta=64), make_generator(3),
        metrics=metrics,
    )
    return sim, metrics, client


class TestGroupCommit:
    def test_concurrent_streams_commit_correctly(self):
        sim, metrics, client = build()
        committed = {}

        def stream(tag, n_txns):
            for i in range(n_txns):
                lsns = []
                for j in range(3):
                    data = b"%s:%d:%d" % (tag.encode(), i, j)
                    lsn = yield from client.log(data)
                    lsns.append((lsn, data))
                yield from client.force()
                committed.setdefault(tag, []).extend(lsns)

        def main():
            yield from client.initialize()
            procs = [
                sim.spawn(stream("alpha", 10)),
                sim.spawn(stream("beta", 10)),
            ]
            yield sim.all_of(procs)
            # audit: every stream's records are durable and exact
            for tag, entries in committed.items():
                for lsn, data in entries:
                    record = yield from client.read(lsn)
                    assert record.data == data, (tag, lsn)

        proc = sim.spawn(main())
        sim.run(until=120)
        assert proc.triggered and proc.ok
        assert len(committed["alpha"]) == 30
        assert len(committed["beta"]) == 30
        # LSNs are globally unique across the streams
        all_lsns = [lsn for entries in committed.values()
                    for lsn, _data in entries]
        assert len(all_lsns) == len(set(all_lsns))

    def test_cumulative_ack_makes_second_force_free(self):
        """A later force's ack covers earlier buffered records.

        Stream A buffers records without forcing; stream B logs and
        forces — the cumulative NewHighLSN covers A's records too, so
        A's subsequent force sends no new packets at all.
        """
        sim, metrics, client = build()
        counts = {}

        def main():
            yield from client.initialize()
            # A: buffer three records, do not force yet
            for j in range(3):
                yield from client.log(b"A%d" % j)
            # B: one record, then force — carries A's records with it
            yield from client.log(b"B")
            yield from client.force()
            before = metrics.counter("c.msgs_out").count
            # A's force finds everything acknowledged already
            yield from client.force()
            counts["extra_msgs"] = (
                metrics.counter("c.msgs_out").count - before)

        proc = sim.spawn(main())
        sim.run(until=60)
        assert proc.ok
        assert counts["extra_msgs"] == 0

    def test_each_commit_is_at_most_one_message_per_copy(self):
        sim, metrics, client = build()

        def stream(n_txns):
            for i in range(n_txns):
                for j in range(3):
                    yield from client.log(b"r")
                yield from client.force()

        def main():
            yield from client.initialize()
            procs = [sim.spawn(stream(15)) for _ in range(4)]
            yield sim.all_of(procs)

        proc = sim.spawn(main())
        sim.run(until=120)
        assert proc.ok
        force_msgs = (metrics.counter("s0.force_msgs").count
                      + metrics.counter("s1.force_msgs").count)
        assert force_msgs <= 60 * 2
        assert client.forces == 60
