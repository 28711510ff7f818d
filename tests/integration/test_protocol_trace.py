"""Golden-trace tests: the Figure 4-1 exchanges, packet by packet.

These tests pin down the wire behaviour the paper designs for — one
ForceLog packet per force per copy, one NewHighLSN acknowledgment
back, RPC request/reply pairs for the synchronous calls — so protocol
regressions show up as a changed trace, not as a vague latency shift.
"""

from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import Lan
from repro.net.rpc import RpcReply, RpcRequest
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator


class TracingLan(Lan):
    """A LAN that records every transmitted packet's shape."""

    def __init__(self, sim):
        super().__init__(sim)
        self.trace: list[tuple[str, str, str]] = []

    def _transmit(self, packet, destinations):
        label = self._label(packet)
        for dst in destinations:
            self.trace.append((packet.src, dst, label))
        yield from super()._transmit(packet, destinations)

    @staticmethod
    def _label(packet) -> str:
        if packet.kind != "data":
            return packet.kind.upper()
        payload = packet.payload
        if isinstance(payload, RpcRequest):
            return f"RPC:{type(payload.body).__name__}"
        if isinstance(payload, RpcReply):
            return f"REPLY:{type(payload.body).__name__}"
        return type(payload).__name__


def build():
    sim = Simulator()
    lan = TracingLan(sim)
    for i in range(3):
        SimLogServer(sim, lan, f"s{i}")
    client = SimLogClient(
        sim, lan, "c", [f"s{i}" for i in range(3)],
        ReplicationConfig(3, 2, delta=16), make_generator(3),
    )
    return sim, lan, client


class TestForceTrace:
    def test_one_force_is_one_packet_per_copy_plus_acks(self):
        sim, lan, client = build()

        def main():
            yield from client.initialize()
            lan.trace.clear()
            for i in range(7):
                yield from client.log(b"u" * 100)
            yield from client.force()

        sim.spawn(main())
        sim.run(until=30)
        data = [t for t in lan.trace if t[2] in ("ForceLogMsg",
                                                 "NewHighLSNMsg")]
        forces = [t for t in data if t[2] == "ForceLogMsg"]
        acks = [t for t in data if t[2] == "NewHighLSNMsg"]
        # exactly N=2 ForceLog packets out, N=2 acknowledgments back
        assert len(forces) == 2
        assert len(acks) == 2
        assert {t[0] for t in forces} == {"c"}
        assert {t[1] for t in acks} == {"c"}
        # each server that got a force sent the ack
        assert {t[1] for t in forces} == {t[0] for t in acks}

    def test_buffered_records_generate_no_traffic(self):
        sim, lan, client = build()
        counts = {}

        def main():
            yield from client.initialize()
            lan.trace.clear()
            for i in range(3):  # stays below a packet's capacity
                yield from client.log(b"u" * 100)
            counts["after_log"] = len(lan.trace)
            yield from client.force()

        sim.spawn(main())
        sim.run(until=30)
        assert counts["after_log"] == 0  # grouping: nothing until force


class TestInitializationTrace:
    def test_init_exchange_shape(self):
        sim, lan, client = build()

        def main():
            yield from client.initialize()

        sim.spawn(main())
        sim.run(until=30)
        labels = [t[2] for t in lan.trace]
        # three-way handshakes with every server
        assert labels.count("SYN") == 3
        assert labels.count("SYNACK") == 3
        # one IntervalList call per server
        assert labels.count("RPC:IntervalListCall") == 3
        assert labels.count("REPLY:IntervalListReply") == 3
        # epoch from the replicated generator is direct here (the
        # LocalIdGenerator path) — no generator RPCs expected
        assert not any("Generator" in label for label in labels)
        # copies staged and installed on exactly N=2 servers
        assert labels.count("RPC:CopyLogCall") == 2
        assert labels.count("RPC:InstallCopiesCall") == 2
        assert labels.count("REPLY:AckReply") == 4

    def test_ordering_within_one_server(self):
        """IntervalList precedes CopyLog precedes InstallCopies."""
        sim, lan, client = build()

        def main():
            yield from client.initialize()

        sim.spawn(main())
        sim.run(until=30)
        write_set = set(client.write_set)
        for server in write_set:
            to_server = [t[2] for t in lan.trace if t[1] == server
                         and t[2].startswith("RPC:")]
            assert to_server.index("RPC:IntervalListCall") \
                < to_server.index("RPC:CopyLogCall") \
                < to_server.index("RPC:InstallCopiesCall")


class TestReadTrace:
    def test_read_contacts_single_server(self):
        sim, lan, client = build()

        def main():
            yield from client.initialize()
            lsn = yield from client.log(b"x")
            yield from client.force()
            lan.trace.clear()
            yield from client.read(lsn)

        sim.spawn(main())
        sim.run(until=30)
        reads = [t for t in lan.trace if t[2] == "RPC:ReadLogForwardCall"]
        # "each ReadLog operation can be implemented with a request to
        # one log server"
        assert len(reads) == 1
