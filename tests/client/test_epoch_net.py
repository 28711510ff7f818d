"""Tests for the networked identifier generator (Appendix I footnote)."""

import pytest

from repro.client.epoch_net import NetworkEpochSource
from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.errors import NotEnoughServers
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator


def build(m=3):
    sim = Simulator()
    lan = Lan(sim)
    server_ids = [f"s{i}" for i in range(m)]
    servers = {sid: SimLogServer(sim, lan, sid) for sid in server_ids}
    source = NetworkEpochSource(server_ids)
    client = SimLogClient(
        sim, lan, "c", server_ids,
        ReplicationConfig(m, 2, delta=8), source,
    )
    return sim, servers, source, client


class TestNetworkEpochSource:
    def test_epochs_come_from_server_representatives(self):
        sim, servers, source, client = build()

        def main():
            yield from client.initialize()

        sim.spawn(main())
        sim.run(until=30)
        assert client.current_epoch == 1
        assert source.new_ids_issued == 1
        # a write quorum of representatives holds the value
        holders = [s for s in servers.values()
                   if s.generator_rep.read() >= 1]
        assert len(holders) >= 2

    def test_epochs_increase_across_restarts(self):
        sim, servers, source, client = build()
        epochs = []

        def main():
            yield from client.initialize()
            epochs.append(client.current_epoch)
            for _ in range(3):
                client.crash()
                yield from client.restart()
                epochs.append(client.current_epoch)

        sim.spawn(main())
        sim.run(until=60)
        assert epochs == sorted(set(epochs))
        assert len(epochs) == 4

    def test_minority_representative_failure_tolerated(self):
        sim, servers, source, client = build()

        def main():
            yield from client.initialize()
            servers["s0"].crash()
            client.crash()
            yield from client.restart()

        proc = sim.spawn(main())
        sim.run(until=60)
        assert proc.ok
        assert client.current_epoch >= 2

    def test_majority_failure_blocks_initialization(self):
        sim, servers, source, client = build()
        result = {}

        def main():
            yield from client.initialize()
            servers["s0"].crash()
            servers["s1"].crash()
            client.crash()
            try:
                yield from client.restart()
            except NotEnoughServers:
                result["blocked"] = True

        sim.spawn(main())
        sim.run(until=120)
        assert result.get("blocked")

    def test_direct_new_id_rejected(self):
        source = NetworkEpochSource(["a"])
        with pytest.raises(NotImplementedError):
            source.new_id()

    def test_empty_representatives_rejected(self):
        with pytest.raises(NotEnoughServers):
            NetworkEpochSource([])
