"""Tests for the simulated client logging process."""

import random

import pytest

from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.core.errors import (
    LSNNotWritten,
    NotEnoughServers,
    NotInitialized,
    RecordNotPresent,
)
from repro.net.lan import Lan
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet


class Cluster:
    def __init__(self, m=3, n=2, delta=8, loss_prob=0.0, seed=0,
                 force_timeout_s=0.25, write_retries=3, **client_kwargs):
        self.sim = Simulator()
        self.lan = Lan(self.sim, loss_prob=loss_prob, rng=random.Random(seed))
        self.metrics = MetricSet()
        self.servers = {
            f"s{i}": SimLogServer(self.sim, self.lan, f"s{i}",
                                  metrics=self.metrics)
            for i in range(m)
        }
        self.client = SimLogClient(
            self.sim, self.lan, "c1", list(self.servers),
            ReplicationConfig(m, n, delta=delta,
                              write_retries=write_retries),
            make_generator(3),
            metrics=self.metrics, force_timeout_s=force_timeout_s,
            **client_kwargs,
        )

    def run_main(self, main, until=60):
        proc = self.sim.spawn(main)
        self.sim.run(until=until)
        if proc.triggered and not proc.ok:
            _ = proc.value  # re-raise
        assert proc.triggered, "main process did not finish"
        return proc.value


class TestBasicLogging:
    def test_log_force_read_roundtrip(self):
        cluster = Cluster()
        result = {}

        def main():
            yield from cluster.client.initialize()
            lsn = yield from cluster.client.log(b"hello")
            yield from cluster.client.force()
            record = yield from cluster.client.read(lsn)
            result["data"] = record.data

        cluster.run_main(main())
        assert result["data"] == b"hello"

    def test_operations_require_init(self):
        cluster = Cluster()

        def main():
            with pytest.raises(NotInitialized):
                yield from cluster.client.log(b"x")
            with pytest.raises(NotInitialized):
                yield from cluster.client.force()
            with pytest.raises(NotInitialized):
                yield from cluster.client.read(1)

        cluster.run_main(main())

    def test_records_grouped_into_one_packet_per_force(self):
        cluster = Cluster()

        def main():
            yield from cluster.client.initialize()
            before = cluster.metrics.counter("c1.msgs_out").count
            for i in range(7):
                yield from cluster.client.log(b"u" * 100)
            yield from cluster.client.force()
            result = cluster.metrics.counter("c1.msgs_out").count - before
            return result

        # 7 × 100-byte records fit one packet; N=2 servers → 2 messages
        assert cluster.run_main(main()) == 2

    def test_records_on_n_servers_after_force(self):
        cluster = Cluster()

        def main():
            yield from cluster.client.initialize()
            lsn = yield from cluster.client.log(b"x")
            yield from cluster.client.force()
            return lsn

        lsn = cluster.run_main(main())
        holders = [
            sid for sid, server in cluster.servers.items()
            if server.store.client_state("c1").lookup(lsn) is not None
        ]
        assert len(holders) == 2

    def test_large_buffer_streams_as_writelog(self):
        cluster = Cluster(delta=64)

        def main():
            yield from cluster.client.initialize()
            # ~40 × 100B > a packet: streaming kicks in before force
            for i in range(40):
                yield from cluster.client.log(b"z" * 100)
            yield from cluster.client.force()

        cluster.run_main(main())
        write_msgs = cluster.metrics.counter("s0.write_msgs").count + \
            cluster.metrics.counter("s1.write_msgs").count + \
            cluster.metrics.counter("s2.write_msgs").count
        assert write_msgs > 0  # some batches went as plain WriteLog

    def test_read_beyond_end_raises(self):
        cluster = Cluster()

        def main():
            yield from cluster.client.initialize()
            with pytest.raises(LSNNotWritten):
                yield from cluster.client.read(999)

        cluster.run_main(main())

    def test_guard_record_not_present(self):
        cluster = Cluster()

        def main():
            yield from cluster.client.initialize()
            # LSN 1..δ are the initialization guards
            with pytest.raises(RecordNotPresent):
                yield from cluster.client.read(1)

        cluster.run_main(main())

    def test_delta_bound_forces_automatically(self):
        cluster = Cluster(delta=4)

        def main():
            yield from cluster.client.initialize()
            for i in range(20):
                yield from cluster.client.log(b"r")
            return cluster.client.forces

        forces = cluster.run_main(main())
        assert forces >= 4  # the δ bound kept forcing


class TestFailover:
    def test_server_crash_switches_write_set(self):
        cluster = Cluster()
        result = {}

        def main():
            yield from cluster.client.initialize()
            yield from cluster.client.log(b"a")
            yield from cluster.client.force()
            victim = cluster.client.write_set[0]
            cluster.servers[victim].crash()
            for i in range(10):
                yield from cluster.client.log(b"b%d" % i)
            yield from cluster.client.force()
            result["victim"] = victim
            result["ws"] = cluster.client.write_set

        cluster.run_main(main(), until=120)
        assert result["victim"] not in result["ws"]
        assert cluster.client.server_switches >= 1

    def test_records_remain_n_durable_after_switch(self):
        cluster = Cluster()
        result = {}

        def main():
            yield from cluster.client.initialize()
            lsns = []
            for i in range(3):
                lsns.append((yield from cluster.client.log(b"v%d" % i)))
            yield from cluster.client.force()
            victim = cluster.client.write_set[0]
            cluster.servers[victim].crash()
            lsns.append((yield from cluster.client.log(b"after")))
            yield from cluster.client.force()
            result["lsns"] = lsns

        cluster.run_main(main(), until=120)
        # every record readable even with the victim still down
        sim = cluster.sim

        def audit():
            datas = []
            for lsn in result["lsns"]:
                record = yield from cluster.client.read(lsn)
                datas.append(record.data)
            return datas

        proc = sim.spawn(audit())
        sim.run(until=sim.now + 60)
        assert proc.value == [b"v0", b"v1", b"v2", b"after"]

    def test_force_fails_when_too_few_servers(self):
        cluster = Cluster(m=2, n=2)
        result = {}

        def main():
            yield from cluster.client.initialize()
            yield from cluster.client.log(b"x")
            cluster.servers["s0"].crash()
            try:
                yield from cluster.client.force()
            except NotEnoughServers:
                result["failed"] = True

        cluster.run_main(main(), until=120)
        assert result.get("failed")

    def test_lossy_network_still_completes(self):
        cluster = Cluster(loss_prob=0.1, seed=4)

        def main():
            yield from cluster.client.initialize()
            lsns = []
            for i in range(20):
                lsns.append((yield from cluster.client.log(b"p%d" % i)))
                if i % 5 == 4:
                    yield from cluster.client.force()
            yield from cluster.client.force()
            datas = []
            for lsn in lsns:
                record = yield from cluster.client.read(lsn)
                datas.append(record.data)
            return datas

        datas = cluster.run_main(main(), until=300)
        assert datas == [b"p%d" % i for i in range(20)]


class TestClientRestart:
    def test_crash_restart_preserves_forced_records(self):
        cluster = Cluster()
        result = {}

        def main():
            yield from cluster.client.initialize()
            lsn = yield from cluster.client.log(b"durable")
            yield from cluster.client.force()
            epoch1 = cluster.client.current_epoch
            cluster.client.crash()
            yield from cluster.client.restart()
            record = yield from cluster.client.read(lsn)
            result["data"] = record.data
            result["epochs"] = (epoch1, cluster.client.current_epoch)

        cluster.run_main(main(), until=120)
        assert result["data"] == b"durable"
        assert result["epochs"][1] > result["epochs"][0]

    def test_unforced_records_may_vanish_but_consistently(self):
        cluster = Cluster()
        result = {}

        def main():
            yield from cluster.client.initialize()
            yield from cluster.client.log(b"forced")
            yield from cluster.client.force()
            # buffered, never forced:
            lost_lsn = yield from cluster.client.log(b"buffered-only")
            cluster.client.crash()
            yield from cluster.client.restart()
            try:
                record = yield from cluster.client.read(lost_lsn)
                result["outcome"] = record.data
            except (RecordNotPresent, LSNNotWritten):
                result["outcome"] = None

        cluster.run_main(main(), until=120)
        # buffered-only records were never acknowledged: the paper
        # allows either fate, as long as it is consistent — here the
        # record never left the client, so it must be gone.
        assert result["outcome"] is None

    def test_restart_without_quorum_fails(self):
        cluster = Cluster(m=3, n=2)
        result = {}

        def main():
            yield from cluster.client.initialize()
            cluster.client.crash()
            cluster.servers["s0"].crash()
            cluster.servers["s1"].crash()
            try:
                yield from cluster.client.restart()
            except NotEnoughServers:
                result["failed"] = True

        cluster.run_main(main(), until=120)
        assert result.get("failed")

    def test_rotate_write_set_fragments_intervals(self):
        cluster = Cluster(m=4, n=2)

        def main():
            yield from cluster.client.initialize()
            from repro.server.load import RandomAssignment
            cluster.client.assignment = RandomAssignment(random.Random(3))
            for i in range(12):
                yield from cluster.client.log(b"x%d" % i)
                yield from cluster.client.force()
                yield from cluster.client.rotate_write_set()

        cluster.run_main(main(), until=300)
        max_intervals = max(
            len(server.store.client_state("c1").intervals())
            for server in cluster.servers.values()
        )
        assert max_intervals > 1
        assert cluster.client.server_switches > 0


class TestAckTimeoutRace:
    def test_await_ack_sees_ack_at_the_timeout_instant(self):
        """An ack delivered at the exact timeout instant must count.

        The acker is scheduled *after* the waiter's timeout at the same
        simulated time, so the timeout event fires first — exactly the
        race that used to trigger a spurious full resend.
        """
        cluster = Cluster()
        sim = cluster.sim
        client = cluster.client
        result = {}

        def waiter():
            ok = yield from client._await_ack("s0", 5)
            result["ok"] = ok

        def acker():
            yield sim.timeout(client.force_timeout_s)
            client._note_ack("s0", 5)

        sim.spawn(waiter())
        sim.spawn(acker())
        sim.run(until=10)
        assert result["ok"] is True

    def test_force_with_delayed_ack_does_not_resend(self):
        """Regression: a late ack at the timeout must not resend a force.

        The LAN drops every packet after initialization, so the only
        acks the client ever sees are the scripted ones, delivered at
        exactly the instant each ack-wait times out (queued behind the
        timeout event).  The force must complete with one send per
        write-set server — no retries, no server switch.
        """
        cluster = Cluster()
        sim = cluster.sim
        client = cluster.client
        result = {}

        class AckAtTimeout(list):
            """Waiter list that schedules the ack at the timeout instant."""

            def __init__(self, server_id):
                super().__init__()
                self.server_id = server_id

            def append(self, entry):
                super().append(entry)
                high, _event = entry

                def acker():
                    yield sim.timeout(client.force_timeout_s)
                    client._note_ack(self.server_id, high)

                sim.spawn(acker())

        def main():
            yield from client.initialize()
            cluster.lan.loss_prob = 1.0  # servers never see (or ack) anything
            for sid in client.write_set:
                client._ack_waiters[sid] = AckAtTimeout(sid)
            yield from client.log(b"payload")
            before = cluster.metrics.counter("c1.msgs_out").count
            yield from client.force()
            result["sends"] = cluster.metrics.counter("c1.msgs_out").count - before

        cluster.run_main(main(), until=60)
        # exactly one WriteLog per write-set server; a spurious resend
        # would double that (and a switch would add NewInterval traffic)
        assert result["sends"] == 2
        assert cluster.client.server_switches == 0
        assert cluster.client._suspect_since == {}


class TestWriteSetMigration:
    def test_server_held_down_past_threshold_is_migrated(self):
        from repro.core.retry import RetryPolicy

        cluster = Cluster(
            force_timeout_s=0.1, write_retries=10,
            migrate_after_s=0.25,
            retry_policy=RetryPolicy(base_delay_s=0.02, cap_delay_s=0.1,
                                     jitter=0.0),
        )
        result = {}

        def main():
            yield from cluster.client.initialize()
            yield from cluster.client.log(b"before")
            yield from cluster.client.force()
            victim = cluster.client.write_set[0]
            # hold the server down without closing its connections: it
            # keeps accepting packets and silently drops them, so every
            # attempt times out instead of failing fast — §5.4's
            # "down past the threshold" scenario.
            cluster.servers[victim].crashed = True
            t0 = cluster.sim.now
            lsn = yield from cluster.client.log(b"after")
            yield from cluster.client.force()
            result["victim"] = victim
            result["elapsed"] = cluster.sim.now - t0
            result["lsn"] = lsn

        cluster.run_main(main(), until=120)
        victim = result["victim"]
        assert victim not in cluster.client.write_set
        assert cluster.client.server_switches >= 1
        # the migration threshold cut the retry loop short: exhausting
        # all 10 retries at 0.1 s timeouts plus backoff would take ~2 s
        assert result["elapsed"] < 1.0
        # the commit is durable on the migrated write set
        for sid in cluster.client.write_set:
            stored = cluster.servers[sid].store.client_state("c1") \
                .lookup(result["lsn"])
            assert stored is not None and stored.present
            assert stored.data == b"after"

    def test_no_migration_without_threshold(self):
        # migrate_after_s=None (the default) keeps the historical
        # retry-then-switch behaviour: _past_migration_threshold is off
        cluster = Cluster()
        assert cluster.client._past_migration_threshold("s0") is False


class TestInitializeWithRetry:
    def test_rides_out_a_repair_window(self):
        from repro.core.retry import RetryPolicy

        cluster = Cluster()
        result = {}

        def repair():
            yield cluster.sim.timeout(0.3)
            cluster.servers["s0"].restart()

        def main():
            cluster.servers["s0"].crash()
            cluster.servers["s1"].crash()  # 1 of 3 up; init quorum is 2
            cluster.sim.spawn(repair())
            yield from cluster.client.initialize_with_retry(
                policy=RetryPolicy(base_delay_s=0.1, cap_delay_s=0.5,
                                   jitter=0.0, max_attempts=8))
            result["initialized"] = cluster.client.initialized

        cluster.run_main(main(), until=60)
        assert result["initialized"] is True

    def test_deadline_bounds_the_retrying(self):
        from repro.core.errors import ServerUnavailable
        from repro.core.retry import RetryPolicy

        cluster = Cluster()
        result = {}

        def main():
            cluster.servers["s0"].crash()
            cluster.servers["s1"].crash()  # never repaired
            t0 = cluster.sim.now
            try:
                yield from cluster.client.initialize_with_retry(
                    deadline_s=0.5,
                    policy=RetryPolicy(base_delay_s=0.1, cap_delay_s=0.2,
                                       jitter=0.0, max_attempts=50))
            except (NotEnoughServers, ServerUnavailable):
                result["raised"] = True
            result["elapsed"] = cluster.sim.now - t0

        cluster.run_main(main(), until=60)
        assert result.get("raised") is True
        # one attempt against crashed servers takes ~3 simulated
        # seconds of RPC timeouts; the deadline must stop the schedule
        # right after it instead of running all 50 attempts
        assert result["elapsed"] <= 6.0

    def test_restart_with_retry_recovers_forced_records(self):
        from repro.core.retry import RetryPolicy

        cluster = Cluster()
        result = {}

        def repair():
            yield cluster.sim.timeout(0.4)
            cluster.servers["s0"].restart()
            cluster.servers["s1"].restart()

        def main():
            yield from cluster.client.initialize()
            lsn = yield from cluster.client.log(b"durable")
            yield from cluster.client.force()
            cluster.client.crash()
            cluster.servers["s0"].crash()
            cluster.servers["s1"].crash()
            cluster.sim.spawn(repair())
            yield from cluster.client.restart_with_retry(
                policy=RetryPolicy(base_delay_s=0.1, cap_delay_s=0.5,
                                   jitter=0.0, max_attempts=10))
            record = yield from cluster.client.read(lsn)
            result["data"] = record.data

        cluster.run_main(main(), until=120)
        assert result["data"] == b"durable"
