"""Soak test: ET1 under continuous random server failures.

Servers crash and recover on independent exponential schedules while
clients run transactions; every transaction whose commit force
returned is recorded, and after the storm every recorded record must
be readable with its exact payload — the durability contract under
sustained, overlapping failures rather than the scripted ones of the
crash matrix.
"""

import random

import pytest

from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.core.errors import NotEnoughServers, ServerUnavailable
from repro.net.lan import Lan
from repro.server.load import StickyAssignment
from repro.server.log_server import SimLogServer
from repro.sim.failures import UpDownProcess
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet


class SoakHarness:
    def __init__(self, clients=4, servers=4, seed=0, mtbf=4.0, mttr=0.4):
        self.sim = Simulator()
        self.lan = Lan(self.sim, rng=random.Random(seed))
        self.metrics = MetricSet()
        self.server_ids = [f"s{i}" for i in range(servers)]
        self.servers = {
            sid: SimLogServer(self.sim, self.lan, sid, metrics=self.metrics)
            for sid in self.server_ids
        }
        self.failers = [
            UpDownProcess(self.sim, server, mtbf=mtbf, mttr=mttr,
                          rng=random.Random(seed + 17 + i))
            for i, (sid, server) in enumerate(self.servers.items())
        ]
        generator = make_generator(3)
        self.clients = []
        for i in range(clients):
            client = SimLogClient(
                self.sim, self.lan, f"c{i}", self.server_ids,
                ReplicationConfig(servers, 2, delta=32), generator,
                metrics=self.metrics,
                assignment=StickyAssignment([
                    self.server_ids[i % servers],
                    self.server_ids[(i + 1) % servers],
                ]),
                force_timeout_s=0.15,
            )
            self.clients.append(client)
        #: committed (client, lsn, payload) triples — the audit set.
        self.committed: list[tuple[SimLogClient, int, bytes]] = []
        self.txn_attempts = 0
        self.txn_commits = 0
        self.recoveries = 0

    def client_loop(self, client: SimLogClient, duration_s: float,
                    rng: random.Random):
        initialized = False
        t_end = duration_s
        while self.sim.now < t_end:
            if not initialized:
                try:
                    yield from client.restart()
                    initialized = True
                    self.recoveries += 1
                except (NotEnoughServers, ServerUnavailable):
                    yield self.sim.timeout(0.3)
                    continue
            yield self.sim.timeout(rng.expovariate(8.0))
            self.txn_attempts += 1
            lsns = []
            payloads = []
            try:
                for i in range(5):
                    data = b"%s:%d:%d" % (client.client_id.encode(),
                                          self.txn_attempts, i)
                    lsn = yield from client.log(data)
                    lsns.append(lsn)
                    payloads.append(data)
                yield from client.force()
            except (NotEnoughServers, ServerUnavailable):
                client.crash()
                initialized = False
                continue
            self.txn_commits += 1
            self.committed.extend(
                (client, lsn, data) for lsn, data in zip(lsns, payloads))

    def run(self, duration_s: float = 12.0):
        procs = [
            self.sim.spawn(self.client_loop(
                client, duration_s, random.Random(100 + i)))
            for i, client in enumerate(self.clients)
        ]
        self.sim.run(until=duration_s + 5)
        for failer in self.failers:
            failer.stop()
        # calm the cluster and finish any stuck client loops
        for server in self.servers.values():
            if server.crashed:
                server.restart()
        self.sim.run(until=self.sim.now + 30)

    def audit(self):
        """Every committed record must be readable, exact payload."""
        failures = []

        def auditor():
            for client in self.clients:
                client.crash()
                yield from client.restart()
            for client, lsn, expected in self.committed:
                try:
                    record = yield from client.read(lsn)
                except Exception as exc:  # noqa: BLE001 - collected
                    failures.append((client.client_id, lsn, repr(exc)))
                    continue
                if record.data != expected:
                    failures.append((client.client_id, lsn,
                                     f"{record.data!r} != {expected!r}"))

        proc = self.sim.spawn(auditor())
        # each audit read costs a real random disk read (~66 ms), so
        # budget simulated time proportional to the committed volume
        budget = 0.3 * len(self.committed) + 120
        self.sim.run(until=self.sim.now + budget)
        assert proc.triggered, "audit did not finish"
        if not proc.ok:
            _ = proc.value  # re-raise
        return failures


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_committed_transaction_lost_under_failure_storm(seed):
    harness = SoakHarness(seed=seed)
    harness.run(duration_s=10.0)
    # the storm must have actually done something
    assert sum(f.crashes for f in harness.failers) >= 3
    assert harness.txn_commits > 20
    failures = harness.audit()
    assert failures == [], failures[:5]


def test_soak_with_aggressive_failures():
    """Higher failure rate: fewer commits, still zero loss."""
    harness = SoakHarness(seed=9, mtbf=2.0, mttr=0.8)
    harness.run(duration_s=8.0)
    failures = harness.audit()
    assert failures == [], failures[:5]
    # commits happened despite ~29% per-server downtime
    assert harness.txn_commits > 5
