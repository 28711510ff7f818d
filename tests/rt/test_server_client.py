"""In-process integration: asyncio client against asyncio daemons.

Real sockets (loopback TCP, ephemeral ports) and real files, but all
inside one process so tests stay fast and debuggable.  Process-level
failures are covered by ``test_cluster_failover.py``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import NotEnoughServers, NotInitialized, RecordNotPresent
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import FileLogStore

from .inprocess import Cluster


def run(coro):
    return asyncio.run(coro)


CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def test_write_force_read_round_trip(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            assert log.current_epoch == 1
            assert len(log.write_set) == CONFIG.copies
            lsns = [await log.write(f"rec{i}".encode()) for i in range(10)]
            high = await log.force()
            assert high == lsns[-1]
            for i, lsn in enumerate(lsns):
                rec = await log.read(lsn)
                assert rec.data == f"rec{i}".encode()
            # Guards written by initialization are not-present.
            with pytest.raises(RecordNotPresent):
                await log.read(1)
            await log.close()

    run(main())


def test_force_is_durable_on_n_servers(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            lsn = await log.write(b"must-survive")
            await log.force()
            write_set = log.write_set
            await log.close()
            return lsn, write_set

    lsn, write_set = run(main())
    # After every daemon is closed, reopen the files: the record must
    # be on disk on every write-set server.
    stored_on = []
    for sid in write_set:
        store = FileLogStore(os.path.join(tmp_path, sid), sid)
        if lsn in store.stored_lsns("c1"):
            assert store.read_record("c1", lsn).data == b"must-survive"
            stored_on.append(sid)
        store.close()
    assert len(stored_on) == CONFIG.copies


def test_restart_bumps_epoch_and_recovers_high_lsn(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            lsns = [await log.write(f"a{i}".encode()) for i in range(12)]
            await log.force()
            first_epoch = log.current_epoch
            first_high = log.end_of_log()
            await log.close()

            log2 = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log2.initialize()
            assert log2.current_epoch > first_epoch
            # δ guard records extend the log past the old high LSN.
            assert log2.end_of_log() == first_high + CONFIG.delta
            # Every forced record survives the restart with its bytes.
            for i, lsn in enumerate(lsns):
                assert (await log2.read(lsn)).data == f"a{i}".encode()
            # And the restarted log accepts new writes.
            lsn = await log2.write(b"post-restart")
            await log2.force()
            assert (await log2.read(lsn)).data == b"post-restart"
            await log2.close()

    run(main())


def test_server_loss_switches_write_set_mid_stream(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            victim = log.write_set[0]
            spare = next(s for s in cluster.addresses()
                         if s not in log.write_set)
            for i in range(4):
                await log.write(f"pre{i}".encode())
            await log.force()
            await cluster.stop(victim)  # connection dies server-side
            for i in range(4):
                await log.write(f"post{i}".encode())
            high = await log.force()
            assert victim not in log.write_set
            assert spare in log.write_set
            assert log.server_switches >= 1
            # All records still readable at N=2 with one server down.
            assert (await log.read(high)).data == b"post3"
            await log.close()

    run(main())


def test_write_set_loss_below_n_raises(tmp_path):
    async def main():
        async with Cluster(tmp_path, m=2) as cluster:
            config = ReplicationConfig(total_servers=2, copies=2, delta=4)
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), config,
            )
            # Speed the failure path up: one attempt, no backoff.
            log.retry_policy = type(log.retry_policy)(
                max_attempts=1, base_delay_s=0.0)
            await log.initialize()
            await log.write(b"x")
            await cluster.stop(log.write_set[0])
            with pytest.raises(NotEnoughServers):
                await log.force()
            await log.close()

    run(main())


def test_gap_triggers_missing_interval_then_new_interval(tmp_path):
    """A force past a gap is NAK'd and neither stored nor acked; after
    NewInterval the re-sent force is stored and acked."""

    async def main():
        async with Cluster(tmp_path, m=1) as cluster:
            from repro.core.records import StoredRecord
            from repro.net.codec import frame, read_message
            from repro.net.messages import (
                ForceLogMsg,
                MissingIntervalMsg,
                NewHighLSNMsg,
                NewIntervalMsg,
            )

            host, port = cluster.addresses()["s1"]
            reader, writer = await asyncio.open_connection(host, port)

            def force(lsn):
                return ForceLogMsg("c1", 1, (StoredRecord(
                    lsn=lsn, epoch=1, data=b"z"),))

            async def reply():
                # Bounded: a reply that never comes fails the test
                # instead of hanging the suite.
                return await asyncio.wait_for(read_message(reader), 5.0)

            writer.write(frame(force(1)))
            await writer.drain()
            ack = await reply()
            assert isinstance(ack, NewHighLSNMsg) and ack.new_high_lsn == 1

            # Jump to LSN 5: the server NAKs the gap [2, 4], and stores
            # and acks nothing of the batch past it ...
            writer.write(frame(force(5)))
            await writer.drain()
            nak = await reply()
            assert isinstance(nak, MissingIntervalMsg)
            assert (nak.lo, nak.hi) == (2, 4)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(read_message(reader), 0.3)

            # ... until a NewInterval makes the jump legitimate and the
            # force is sent again.
            writer.write(frame(NewIntervalMsg("c1", 1, starting_lsn=5)))
            writer.write(frame(force(5)))
            await writer.drain()
            ack = await reply()
            assert isinstance(ack, NewHighLSNMsg) and ack.new_high_lsn == 5

            daemon = cluster.daemons["s1"]
            assert daemon.missing_intervals_sent == 1
            assert daemon.forces_acked == 2
            intervals = daemon.store.interval_list("c1").intervals
            assert [(iv.lo, iv.hi) for iv in intervals] == [(1, 1), (5, 5)]
            writer.close()
            await writer.wait_closed()

    run(main())


def test_read_log_packs_within_packet_budget(tmp_path):
    async def main():
        async with Cluster(tmp_path, m=1) as cluster:
            from repro.net.codec import frame, read_message
            from repro.net.messages import (
                RECORD_HEADER_BYTES,
                ReadLogBackwardCall,
                ReadLogForwardCall,
                ReadLogReply,
            )
            from repro.net.packet import PACKET_PAYLOAD_BYTES

            daemon = cluster.daemons["s1"]
            from repro.core.records import StoredRecord

            for lsn in range(1, 101):
                daemon.store.append_record(
                    "c1", StoredRecord(lsn=lsn, epoch=1, data=b"d" * 100),
                    fsync=False,
                )
            host, port = cluster.addresses()["s1"]
            reader, writer = await asyncio.open_connection(host, port)

            writer.write(frame(ReadLogForwardCall("c1", 1)))
            await writer.drain()
            fwd = await read_message(reader)
            assert isinstance(fwd, ReadLogReply)
            per_record = RECORD_HEADER_BYTES + 100
            expected = PACKET_PAYLOAD_BYTES // per_record
            assert len(fwd.records) == expected
            assert [r.lsn for r in fwd.records] == list(range(1, expected + 1))

            writer.write(frame(ReadLogBackwardCall("c1", 100)))
            await writer.drain()
            bwd = await read_message(reader)
            assert isinstance(bwd, ReadLogReply)
            assert [r.lsn for r in bwd.records] == \
                list(range(101 - expected, 101))

            # Reading past the end returns an empty reply, not an error.
            writer.write(frame(ReadLogForwardCall("c1", 200)))
            await writer.drain()
            empty = await read_message(reader)
            assert isinstance(empty, ReadLogReply) and empty.records == ()
            writer.close()
            await writer.wait_closed()

    run(main())


def test_two_clients_share_a_cluster(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            a = AsyncReplicatedLog("alice", cluster.addresses(), CONFIG)
            b = AsyncReplicatedLog("bob", cluster.addresses(), CONFIG)
            await a.initialize()
            await b.initialize()
            la = await a.write(b"from-alice")
            lb = await b.write(b"from-bob")
            await a.force()
            await b.force()
            assert (await a.read(la)).data == b"from-alice"
            assert (await b.read(lb)).data == b"from-bob"
            await a.close()
            await b.close()

    run(main())


def test_use_before_initialize_raises(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            with pytest.raises(NotInitialized):
                await log.write(b"x")
            await log.close()

    run(main())


def test_a_restarted_client_draws_no_missing_interval(tmp_path):
    """Each generation's first batch starts past the δ guards its
    restart installed; the daemons must take that as contiguous, not
    NAK the guards as a gap the client then has to re-announce."""
    async def main():
        async with Cluster(tmp_path) as cluster:
            seen = []
            for generation in range(3):
                log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
                await log.initialize()
                for i in range(5):
                    await log.write(f"g{generation}.{i}".encode())
                await log.force()
                seen.append(log.missing_intervals_seen)
                await log.close()
            assert seen == [0, 0, 0]
            assert {sid: d.missing_intervals_sent
                    for sid, d in cluster.daemons.items()} \
                == {"s1": 0, "s2": 0, "s3": 0}

    run(main())
