#!/usr/bin/env python3
"""Operating a log service: dumps, space management, and repair.

The operator's day (Section 5.3): a client node runs transactions
against two log servers; dumps are taken periodically; the servers
spool cold log data to offline storage; then two disasters strike —
the client's data disk dies (media recovery from dump + log suffix),
and one log server's disk dies (repair by re-replication onto a
replacement).  Every step prints the books.

Run:  python examples/space_management.py
"""

import random

from repro.client.log_client import SimLogClient
from repro.client.node import ClientNode
from repro.client.dumps import DumpManager
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.core.intervals import MergedIntervalMap, ServerIntervals
from repro.core.procedure import run
from repro.core.repair import repair, under_replicated_lsns
from repro.core.store import LogServerStore, store_performer
from repro.tables import format_table
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.server.space import SpaceManager
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet


def main() -> None:
    sim = Simulator()
    lan = Lan(sim)
    metrics = MetricSet()
    servers = {sid: SimLogServer(sim, lan, sid, metrics=metrics)
               for sid in ("log-a", "log-b")}
    client = SimLogClient(
        sim, lan, "erp-node", ["log-a", "log-b"],
        ReplicationConfig(2, 2, delta=16), make_generator(3),
        metrics=metrics,
    )
    node = ClientNode.simulated(client)
    dumps = DumpManager(node.rm)
    managers = {sid: SpaceManager(s.stream) for sid, s in servers.items()}
    rng = random.Random(4)

    def workday():
        yield from client.initialize()
        # --- morning: 60 transactions, a noon dump, 60 more ----------
        for seq in range(60):
            key = f"order:{rng.randrange(30)}"
            yield from node.run_transaction([(key, f"rev{seq}")])
        dump = yield from dumps.take_dump()
        print(f"noon dump taken at LSN {dump.dump_lsn} "
              f"({dump.byte_size} bytes of database)")
        for seq in range(60, 120):
            key = f"order:{rng.randrange(30)}"
            yield from node.run_transaction([(key, f"rev{seq}")])

        # --- afternoon: space management pass -------------------------
        point = dumps.truncation_point()
        print(f"\ntruncation point: node recovery needs LSN >= "
              f"{point.node_recovery_lsn}, media recovery needs LSN >= "
              f"{point.media_recovery_lsn}")
        rows = []
        for sid, manager in managers.items():
            servers[sid].stream.seal_track()
            manager.declare("erp-node", point)
            report = manager.spool_to_offline()
            rows.append((sid, f"{report.online_bytes:,}",
                         f"{report.spooled_bytes:,}",
                         manager.online_entries_for_node_recovery("erp-node")))
        print(format_table(
            ["server", "online bytes", "spooled bytes",
             "node-recovery reads"], rows))

        # --- disaster one: the client's data disk dies -----------------
        print("\n*** the client node's data disk is destroyed ***")
        node.db.stable.clear()
        node.db.cache.clear()
        summary = yield from dumps.media_recovery()
        print(f"media recovery: reloaded the dump, replayed "
              f"{summary['records_scanned']} log records from LSN "
              f"{summary['replayed_from_lsn']}")
        sample = sorted(node.db.stable)[:3]
        print(f"recovered rows (sample): "
              f"{ {k: node.db.stable[k] for k in sample} }")

        # --- disaster two: log-a's disk dies ----------------------------
        print("\n*** log server 'log-a' loses its disk ***")
        replacement = LogServerStore("log-a-replacement")
        stores = {"log-b": servers["log-b"].store,
                  replacement.server_id: replacement}
        result = run(repair(["log-b"], replacement.server_id, copies=2),
                     store_performer(stores, "erp-node"))
        print(f"repair: {result.records_copied} records "
              f"({result.bytes_copied:,} bytes) re-replicated onto "
              f"{result.target_server}")
        merged = MergedIntervalMap.merge([
            ServerIntervals("log-b",
                            servers["log-b"].store
                            .client_state("erp-node").intervals()),
            ServerIntervals(replacement.server_id,
                            replacement.client_state("erp-node").intervals()),
        ])
        assert under_replicated_lsns(merged, 2) == []
        print("every record is back on two servers. done.")

    sim.spawn(workday())
    sim.run(until=600)


if __name__ == "__main__":
    main()
