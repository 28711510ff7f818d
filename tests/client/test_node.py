"""Tests for the assembled client node over the simulated stack."""

from repro.client.log_client import SimLogClient
from repro.client.node import ClientNode
from repro.client.splitting import UndoCache
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator

from ..conftest import drain


class TestDirectNode:
    def test_builder_returns_working_node(self):
        node, stores = ClientNode.direct(m=4, n=2)
        assert len(stores) == 4
        drain(node.run_transaction([("k", "v")]))
        assert node.read("k") == "v"

    def test_crash_clears_volatile_state(self):
        node, _ = ClientNode.direct(undo_cache=UndoCache())
        txn = drain(node.rm.begin())
        drain(node.rm.update(txn, "a", "1"))
        node.crash()
        assert node.db.cache == {}
        assert node.rm.active == {}
        assert len(node.rm.undo_cache) == 0


class TestSimulatedNode:
    def build(self):
        sim = Simulator()
        lan = Lan(sim)
        for i in range(3):
            SimLogServer(sim, lan, f"s{i}")
        client = SimLogClient(
            sim, lan, "node-client", [f"s{i}" for i in range(3)],
            ReplicationConfig(3, 2, delta=16), make_generator(3),
        )
        node = ClientNode.simulated(client)
        return sim, client, node

    def test_transactions_over_the_network(self):
        sim, client, node = self.build()
        result = {}

        def main():
            yield from client.initialize()
            yield from node.run_transaction([("acct", "100")])
            yield from node.run_transaction([("acct", "150")])
            result["value"] = node.read("acct")

        sim.spawn(main())
        sim.run(until=60)
        assert result["value"] == "150"

    def test_full_crash_recovery_over_the_network(self):
        sim, client, node = self.build()
        result = {}

        def main():
            yield from client.initialize()
            yield from node.run_transaction([("a", "1"), ("b", "2")])
            txn = yield from node.rm.begin()
            yield from node.rm.update(txn, "a", "dirty")
            node.crash()
            summary = yield from node.restart()
            result["summary"] = summary
            result["a"] = node.db.stable["a"]
            result["b"] = node.db.stable["b"]

        sim.spawn(main())
        sim.run(until=120)
        assert result["a"] == "1"
        assert result["b"] == "2"
        assert result["summary"]["winners"] == 1

    def test_abort_over_the_network(self):
        sim, client, node = self.build()
        result = {}

        def main():
            yield from client.initialize()
            yield from node.run_transaction([("x", "keep")])
            yield from node.run_transaction([("x", "drop")], abort=True)
            result["x"] = node.read("x")

        sim.spawn(main())
        sim.run(until=60)
        assert result["x"] == "keep"
