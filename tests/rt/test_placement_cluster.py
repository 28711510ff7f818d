"""Live rebalancing and tenant quotas against real server processes.

The acceptance scenario for the sharded multi-tenant layer: a fleet of
real daemons serves K ring-placed client streams; a server is
SIGKILLed and retired from the roster (or a new one joins) while the
streams keep writing; every client adopts the new directory through
:meth:`AsyncReplicatedLog.apply_placement` — the same Section 5.4
write-set switch the failure path uses — and afterwards

* only the clients whose write set contained the changed server moved
  (~K·N/M, not all K),
* every acknowledged record is still durable on the surviving stores
  (zero acked loss), and
* a restarted client reads every record back byte-identical.

Quota enforcement runs against in-process daemons (fast, debuggable):
stream admission refuses a tenant's surplus stream fleet-wide, and the
records/s token bucket throttles a hot tenant until refill — the
client backing off on its retry schedule rather than switching
servers.
"""

from __future__ import annotations

import asyncio
import math
import os

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import TenantQuotaExceeded
from repro.core.retry import RetryPolicy
from repro.rt.client import AsyncReplicatedLog
from repro.rt.cluster import LoopbackCluster
from repro.rt.filestore import FileLogStore
from repro.rt.loadgen import run_multi_loadgen
from repro.rt.placement import (
    ClusterSpec,
    PlacementDirectory,
    TenantQuota,
)
from repro.workload.et1 import Et1Params, et1_log_pattern

from .inprocess import Cluster

K = 16  # placed client streams


def _client_ids() -> list[str]:
    return [f"t{i + 1}/c{i + 1}" for i in range(K)]


async def _run_txns(log, start_seq, count, written):
    for seq in range(start_seq, start_seq + count):
        for data, kind, forced in et1_log_pattern(Et1Params(), seq):
            lsn = await log.write(data, kind=kind)
            written[lsn] = data
            if forced:
                await log.force()


def _durable_lsns(root_dir, server_ids, client_id) -> set[int]:
    """Union of a client's stored LSNs across the named servers' files."""
    lsns: set[int] = set()
    for sid in server_ids:
        store = FileLogStore(os.path.join(root_dir, sid), sid)
        try:
            lsns.update(store.stored_lsns(client_id))
        finally:
            store.close()
    return lsns


def test_live_rebalance_when_server_retires(tmp_path):
    """SIGKILL + roster removal mid-run: ~K·N/M streams move, none lose
    an acknowledged record."""
    ids = _client_ids()

    async def main(cluster):
        directory = PlacementDirectory(cluster.cluster_spec(copies=2))
        logs = {cid: AsyncReplicatedLog(cid, directory) for cid in ids}
        await asyncio.gather(*(log.initialize() for log in logs.values()))
        # Placement decided every initial write set.
        for cid, log in logs.items():
            assert list(log.write_set) == directory.write_set(cid)

        written = {cid: {} for cid in ids}
        await asyncio.gather(*(
            _run_txns(logs[cid], 0, 2, written[cid]) for cid in ids))

        victim = logs[ids[0]].write_set[0]
        cluster.kill(victim)
        changed = directory.without_server(victim)
        expected_moves = set(directory.moved_clients(changed, ids))
        assert ids[0] in expected_moves
        # Removing 1 of M servers moves ~K·N/M streams, far from all K.
        m = len(directory.addresses())
        bound = math.ceil(K * directory.spec.copies / m) + 4
        assert len(expected_moves) <= bound < K

        moves = dict(zip(ids, await asyncio.gather(*(
            logs[cid].apply_placement(changed) for cid in ids))))
        for cid, log in logs.items():
            assert victim not in log.write_set
            assert set(log.write_set) == set(changed.write_set(cid))
            if cid in expected_moves:
                assert log.rebalance_moves == 1, cid
                assert moves[cid] and moves[cid][0][0] == victim
            else:
                assert log.rebalance_moves == 0, cid
                assert moves[cid] == []

        # The rebalanced fleet keeps taking writes from every stream.
        await asyncio.gather(*(
            _run_txns(logs[cid], 2, 2, written[cid]) for cid in ids))
        await asyncio.gather(*(log.close() for log in logs.values()))

        # A moved client restarts against the new directory and reads
        # every one of its records back byte-identical.
        probe_cid = sorted(expected_moves)[0]
        probe = AsyncReplicatedLog(probe_cid, changed)
        await probe.initialize()
        for lsn, data in sorted(written[probe_cid].items()):
            assert (await probe.read(lsn)).data == data
        await probe.close()
        return written, victim

    with LoopbackCluster(tmp_path, num_servers=4) as cluster:
        survivors = None
        written, victim = asyncio.run(main(cluster))
        survivors = [sid for sid in cluster.servers if sid != victim]

    # Zero acked loss, checked against the durable files themselves:
    # every record a force acknowledged is stored by some survivor.
    for cid in ids:
        acked = set(written[cid])
        durable = _durable_lsns(tmp_path, survivors, cid)
        assert acked <= durable, (cid, sorted(acked - durable))


def test_live_rebalance_when_server_joins(tmp_path):
    """Adding a server to the roster pulls ~K·N/M streams onto it."""
    ids = _client_ids()

    async def main(cluster):
        addrs = cluster.addresses()
        joining = "s4"
        spec = ClusterSpec(
            servers={sid: a for sid, a in addrs.items() if sid != joining},
            copies=2,
        )
        directory = PlacementDirectory(spec)
        logs = {cid: AsyncReplicatedLog(cid, directory) for cid in ids}
        await asyncio.gather(*(log.initialize() for log in logs.values()))
        written = {cid: {} for cid in ids}
        await asyncio.gather(*(
            _run_txns(logs[cid], 0, 2, written[cid]) for cid in ids))

        grown = directory.with_server(joining, addrs[joining])
        expected_moves = set(directory.moved_clients(grown, ids))
        assert expected_moves, "a 3→4 roster growth must move someone"
        m = len(grown.addresses())
        bound = math.ceil(K * grown.spec.copies / m) + 4
        assert len(expected_moves) <= bound < K

        await asyncio.gather(*(
            logs[cid].apply_placement(grown) for cid in ids))
        for cid, log in logs.items():
            assert set(log.write_set) == set(grown.write_set(cid))
        assert any(joining in log.write_set for log in logs.values())

        await asyncio.gather(*(
            _run_txns(logs[cid], 2, 2, written[cid]) for cid in ids))
        await asyncio.gather(*(log.close() for log in logs.values()))
        return written, expected_moves

    with LoopbackCluster(tmp_path, num_servers=4) as cluster:
        written, moved = asyncio.run(main(cluster))

    # The joining server now durably stores records for moved streams.
    stored_on_s4 = {cid for cid in ids
                    if _durable_lsns(tmp_path, ["s4"], cid)}
    assert stored_on_s4
    assert stored_on_s4 <= moved


# -- tenant quotas (in-process daemons) -------------------------------------


CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)
FAST_RETRY = RetryPolicy(base_delay_s=0.05, cap_delay_s=0.2,
                         max_attempts=8)


def test_stream_quota_refuses_surplus_stream(tmp_path):
    async def main():
        quotas = {"acme": TenantQuota(max_streams=1)}
        async with Cluster(tmp_path, quotas=quotas) as cluster:
            first = AsyncReplicatedLog("acme/a", cluster.addresses(),
                                       CONFIG, retry_policy=FAST_RETRY)
            await first.initialize()
            await first.write(b"admitted")
            await first.force()

            # The tenant's second stream is refused by *every* server —
            # a fleet-wide condition, so the client must not burn spare
            # servers switching: no server switches, only throttles.
            second = AsyncReplicatedLog("acme/b", cluster.addresses(),
                                        CONFIG, retry_policy=FAST_RETRY)
            await second.initialize()
            await second.write(b"refused")
            with pytest.raises(TenantQuotaExceeded):
                await second.force()
            assert second.quota_throttles >= 1
            assert second.server_switches == 0

            # A different tenant is unaffected.
            other = AsyncReplicatedLog("beta/a", cluster.addresses(),
                                       CONFIG, retry_policy=FAST_RETRY)
            await other.initialize()
            await other.write(b"other tenant")
            await other.force()
            await asyncio.gather(first.close(), second.close(),
                                 other.close())
            rejections = [d.quota_rejections
                          for d in cluster.daemons.values()]
            assert sum(rejections) >= 2  # both write-set members refused

    asyncio.run(main())


def test_rate_quota_throttles_then_recovers(tmp_path):
    async def main():
        # Bucket: 30 rec/s, burst 0.1 s ⇒ capacity 3 records.  A
        # 3-record force drains it; the immediate next force is
        # refused until ~0.1 s of refill — within the client's retry
        # schedule, so the second force succeeds after backing off.
        quotas = {"acme": TenantQuota(max_records_per_s=30.0,
                                      burst_s=0.1)}
        async with Cluster(tmp_path, quotas=quotas) as cluster:
            log = AsyncReplicatedLog("acme/hot", cluster.addresses(),
                                     CONFIG, retry_policy=FAST_RETRY)
            await log.initialize()
            for _ in range(3):
                await log.write(b"x" * 32)
            await log.force()
            for _ in range(3):
                await log.write(b"y" * 32)
            high = await log.force()  # throttled, retried, admitted
            assert log.quota_throttles >= 1
            assert log.server_switches == 0
            assert (await log.read(high)).data == b"y" * 32
            await log.close()

    asyncio.run(main())


def _bucket_of(n: int) -> TenantQuota:
    """A records/s quota whose bucket holds ``n`` records and refills
    no measurable amount within a test."""
    return TenantQuota(max_records_per_s=0.001, burst_s=n / 0.001)


def test_streamed_commit_is_charged_each_record_once(tmp_path):
    """A 32 × 1 KiB commit streams as WriteLogs and forces the rest:
    each write-set daemon's bucket is charged its 32 records, no more
    and no fewer — what the whole-window force used to be charged."""
    async def main():
        quotas = {"acme": _bucket_of(100)}
        config = ReplicationConfig(total_servers=3, copies=2, delta=64)
        async with Cluster(tmp_path, quotas=quotas) as cluster:
            log = AsyncReplicatedLog("acme/bulk", cluster.addresses(),
                                     config, retry_policy=FAST_RETRY)
            await log.initialize()
            for i in range(32):
                await log.write(b"%d" % i * 1024)
            await log.force()
            for sid in log.write_set:
                daemon = cluster.daemons[sid]
                tokens, _ = daemon._tenant_buckets["acme"]
                assert 100 - tokens == pytest.approx(32, abs=0.01)
                assert daemon.messages_handled > 2   # batches streamed
            await log.close()

    asyncio.run(main())


def test_a_stream_that_never_forces_is_throttled(tmp_path):
    """WriteLogs are charged as they arrive: past the bucket a batch is
    refused and nothing of it is stored, though no force was made."""
    async def main():
        quotas = {"acme": _bucket_of(3)}
        config = ReplicationConfig(total_servers=3, copies=2, delta=64)
        async with Cluster(tmp_path, quotas=quotas) as cluster:
            log = AsyncReplicatedLog("acme/stream", cluster.addresses(),
                                     config, retry_policy=FAST_RETRY)
            await log.initialize()
            first = None
            for i in range(20):
                lsn = await log.write(b"w" * 1024)
                first = first or lsn
            await asyncio.sleep(0.2)   # let the daemons take the batches
            for sid in log.write_set:
                daemon = cluster.daemons[sid]
                assert daemon.quota_rejections >= 1
                stored = [lsn for lsn in daemon.store.stored_lsns(
                    "acme/stream") if lsn >= first]
                assert stored == [first, first + 1]   # one 2-record batch
            await log.close()

    asyncio.run(main())


def test_idle_stream_slot_is_reclaimed_after_ttl(tmp_path):
    """A tenant at max_streams gets re-admitted once an old stream has
    idled past ``idle_ttl_s`` — without a daemon restart."""
    async def main():
        quotas = {"acme": TenantQuota(max_streams=1, idle_ttl_s=0.5)}
        async with Cluster(tmp_path, quotas=quotas) as cluster:
            first = AsyncReplicatedLog("acme/a", cluster.addresses(),
                                       CONFIG, retry_policy=FAST_RETRY)
            await first.initialize()
            await first.write(b"claims the slot")
            await first.force()
            await first.close()

            # Immediately: the slot is still warm, the new stream is
            # refused exactly like a sticky quota would refuse it.
            # Few, fast retries — a long retry schedule would outlive
            # the TTL and be legitimately admitted mid-backoff.
            second = AsyncReplicatedLog(
                "acme/b", cluster.addresses(), CONFIG,
                retry_policy=RetryPolicy(base_delay_s=0.02,
                                         cap_delay_s=0.05, max_attempts=2))
            await second.initialize()
            await second.write(b"too soon")
            with pytest.raises(TenantQuotaExceeded):
                await second.force()
            await second.close()

            # Past the TTL the idle slot is swept and the same stream
            # id is admitted.
            await asyncio.sleep(0.6)
            third = AsyncReplicatedLog("acme/b", cluster.addresses(),
                                       CONFIG, retry_policy=FAST_RETRY)
            await third.initialize()
            await third.write(b"admitted after ttl")
            high = await third.force()
            assert (await third.read(high)).data == b"admitted after ttl"
            await third.close()

    asyncio.run(main())


def test_loadgen_tolerates_permanent_throttle(tmp_path):
    """A stream the quota never admits reports zero transactions and
    its throttles, without failing the whole multi-client run."""
    async def main():
        quotas = {"t1": TenantQuota(max_streams=1)}
        async with Cluster(tmp_path, quotas=quotas) as cluster:
            # Claim the tenant's one stream slot for lg-1 up front, so
            # the concurrent run below refuses lg-2 deterministically
            # (admission is first-come-first-served per server).
            claim = AsyncReplicatedLog("t1/lg-1", cluster.addresses(),
                                       CONFIG, retry_policy=FAST_RETRY)
            await claim.initialize()
            await claim.write(b"claim")
            await claim.force()
            await claim.close()
            multi = await run_multi_loadgen(
                cluster.addresses(), CONFIG, clients=2, tenants=1,
                base_seed=7, duration_s=1.2, max_txns=3,
            )
            by_id = {r.client_id: r for r in multi.per_client}
            admitted = by_id["t1/lg-1"]
            refused = by_id["t1/lg-2"]
            assert admitted.transactions == 3
            assert refused.transactions == 0
            assert refused.quota_throttles >= 1

    asyncio.run(main())
