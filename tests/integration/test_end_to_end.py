"""End-to-end scenarios spanning the whole stack."""

import random

from repro.client.log_client import SimLogClient
from repro.client.node import ClientNode
from repro.client.splitting import UndoCache
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import DualLan, Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet
from repro.workload.et1 import Et1Params, et1_transaction


class TestWorkstationCluster:
    """Several workstation nodes sharing the same log servers."""

    def test_multiple_clients_share_servers(self):
        sim = Simulator()
        lan = Lan(sim)
        metrics = MetricSet()
        server_ids = [f"s{i}" for i in range(3)]
        servers = {sid: SimLogServer(sim, lan, sid, metrics=metrics)
                   for sid in server_ids}
        generator = make_generator(3)
        nodes = []
        for i in range(4):
            client = SimLogClient(
                sim, lan, f"ws{i}", server_ids,
                ReplicationConfig(3, 2, delta=16), generator,
                metrics=metrics,
            )
            nodes.append(ClientNode.simulated(client))

        params = Et1Params(branches=2, tellers_per_branch=2,
                           accounts_per_branch=20)

        def run_node(index, node):
            rng = random.Random(index)
            yield from node.backend.client.initialize()
            for _ in range(5):
                yield from et1_transaction(node, params, rng)

        def main():
            procs = [sim.spawn(run_node(i, node))
                     for i, node in enumerate(nodes)]
            yield sim.all_of(procs)

        sim.spawn(main())
        sim.run(until=120)
        # every server holds records from several clients, interleaved
        for server in servers.values():
            assert len(server.store.known_clients()) >= 2
        # and each node's database reflects its transactions
        for node in nodes:
            assert any(k.startswith("account:") for k in node.db.cache)

    def test_dual_network_survives_single_network_failure(self):
        sim = Simulator()
        net_a = Lan(sim, name="a")
        net_b = Lan(sim, name="b")
        dual = DualLan(net_a, net_b)
        for i in range(3):
            SimLogServer(sim, dual, f"s{i}")
        client = SimLogClient(
            sim, dual, "c1", [f"s{i}" for i in range(3)],
            ReplicationConfig(3, 2, delta=16), make_generator(3),
        )
        result = {}

        def main():
            yield from client.initialize()
            yield from client.log(b"before")
            yield from client.force()
            net_a.crash()  # one entire network dies
            lsn = yield from client.log(b"after")
            yield from client.force()
            record = yield from client.read(lsn)
            result["data"] = record.data

        sim.spawn(main())
        sim.run(until=120)
        assert result["data"] == b"after"


class TestWholeStackCrashStory:
    """Client crash + server crash + recovery, over the network."""

    def test_client_and_server_crashes_interleaved(self):
        sim = Simulator()
        lan = Lan(sim)
        server_ids = [f"s{i}" for i in range(4)]
        servers = {sid: SimLogServer(sim, lan, sid) for sid in server_ids}
        client = SimLogClient(
            sim, lan, "c1", server_ids,
            ReplicationConfig(4, 2, delta=8), make_generator(3),
        )
        node = ClientNode.simulated(client)
        result = {}

        def main():
            yield from client.initialize()
            yield from node.run_transaction([("a", "1")])
            # server crash mid-life: the client fails over
            victim = client.write_set[0]
            servers[victim].crash()
            yield from node.run_transaction([("b", "2")])
            # client crash: full node recovery over the network
            node.crash()
            yield from node.restart()
            result["a"] = node.db.stable["a"]
            result["b"] = node.db.stable["b"]
            # crashed server comes back (durable store intact) and can
            # serve interval lists again
            servers[victim].restart(lose_nvram=False)
            node.crash()
            yield from node.restart()
            result["a2"] = node.db.stable["a"]

        sim.spawn(main())
        sim.run(until=300)
        assert result["a"] == "1"
        assert result["b"] == "2"
        assert result["a2"] == "1"

    def test_server_power_failure_preserves_acknowledged_data(self):
        sim = Simulator()
        lan = Lan(sim)
        server_ids = ["s0", "s1"]
        servers = {sid: SimLogServer(sim, lan, sid) for sid in server_ids}
        client = SimLogClient(
            sim, lan, "c1", server_ids,
            ReplicationConfig(2, 2, delta=8), make_generator(3),
        )
        result = {}

        def main():
            yield from client.initialize()
            lsn = yield from client.log(b"precious")
            yield from client.force()  # durable on both (in NVRAM)
            servers["s0"].crash()
            servers["s1"].crash()
            servers["s0"].restart()  # NVRAM preserved
            servers["s1"].restart()
            client.crash()
            yield from client.restart()
            record = yield from client.read(lsn)
            result["data"] = record.data

        sim.spawn(main())
        sim.run(until=300)
        assert result["data"] == b"precious"


class TestSplitLoggingOverNetwork:
    def test_undo_cache_with_simulated_backend(self):
        sim = Simulator()
        lan = Lan(sim)
        for i in range(3):
            SimLogServer(sim, lan, f"s{i}")
        client = SimLogClient(
            sim, lan, "c1", [f"s{i}" for i in range(3)],
            ReplicationConfig(3, 2, delta=16), make_generator(3),
        )
        node = ClientNode.simulated(client, undo_cache=UndoCache())
        result = {}

        def main():
            yield from client.initialize()
            yield from node.run_transaction([("x", "keep")])
            yield from node.run_transaction([("x", "drop")], abort=True)
            result["x"] = node.read("x")
            result["remote_reads"] = node.rm.remote_abort_reads

        sim.spawn(main())
        sim.run(until=60)
        assert result["x"] == "keep"
        assert result["remote_reads"] == 0
