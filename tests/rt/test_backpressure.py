"""Back-pressure and hung-server handling, in one process.

A *hung* server is worse than a dead one: TCP connects still succeed
and small sends still land in kernel buffers, so nothing errors — the
replies just stop.  These tests interpose the stallable
:class:`~repro.rt.chaosproxy.ChaosProxy` between the client and one
daemon to create exactly that gray failure and assert the three
defenses added for it:

* the bounded send queue + writer task keep a stalled peer from ever
  blocking the batch path (``try_send`` reports, never waits);
* consecutive queue-full strikes demote a slow server from the write
  set the same way a crash would (Section 5.4's server switch);
* keep-alive probes abort a silent connection after ~2 probe
  intervals, failing pending futures immediately instead of letting
  each caller wait out a full timeout — and the abort path cancels
  the connection's tasks (the reader-task leak regression).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import ServerUnavailable
from repro.net.messages import (
    GeneratorReadCall,
    GeneratorReadReply,
    IntervalListCall,
)
from repro.rt.chaosproxy import ProxiedCluster
from repro.rt.client import AsyncReplicatedLog, ServerConnection

CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def test_call_timeout_tears_down_connection(tmp_path):
    """A timed-out call aborts the connection and cancels its tasks.

    Regression for the reader-task leak: the old path failed the
    pending futures but left the reader task running, so a late reply
    could resolve a future belonging to a different (failed) call.
    """

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=0.3, client_id="c1")
            await conn.connect()
            reader_task = conn._reader_task
            writer_task = conn._writer_task
            cluster.proxy.stall()
            with pytest.raises(ServerUnavailable):
                await conn.call(IntervalListCall("c1"))
            assert not conn.alive
            assert not conn._pending and not conn._force_waiters
            await asyncio.sleep(0)  # let cancellations propagate
            assert reader_task.done()
            assert writer_task.done()
            await conn.close()

    asyncio.run(main())


def test_silent_server_fails_every_pending_call_at_the_timeout(tmp_path):
    """``call`` arms one timer per call; the first to fire takes the
    connection — and every other pending call — down with it, and the
    replies the server finally sends can answer nothing afterwards."""

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=0.3, client_id="c1")
            await conn.connect()
            cluster.proxy.stall()
            started = time.monotonic()
            first, second = await asyncio.gather(
                conn.call(IntervalListCall("c1")),
                conn.call(GeneratorReadCall("c1")),
                return_exceptions=True)
            elapsed = time.monotonic() - started
            assert isinstance(first, ServerUnavailable)
            assert isinstance(second, ServerUnavailable)
            assert "call timed out" in str(first)
            assert 0.3 <= elapsed < 2.0
            assert not conn.alive
            assert not conn._pending
            # The stalled replies are released onto a closed socket; a
            # call on the replacement connection gets its own reply.
            cluster.proxy.unstall()
            await conn.connect()
            reply = await conn.call(GeneratorReadCall("c1"))
            assert isinstance(reply, GeneratorReadReply)
            # ... and a timely reply disarms its timer: nothing fires
            # after the timeout has passed.
            await asyncio.sleep(0.4)
            assert conn.alive
            await conn.close()

    asyncio.run(main())


def test_queue_full_strikes_demote_slow_server_without_blocking(tmp_path):
    """A slow server's full queue never blocks writes; it gets demoted.

    δ is large and forces are avoided, so the only pressure valve is
    the WriteLog path itself.  One write-set member's transport stops
    draining (the asyncio-level face of a peer whose TCP window is
    closed); with a 2-frame send queue the third consecutive
    queue-full flush must switch the write set — and every write call
    must return promptly, bounded by the event loop, not by the
    stalled peer.
    """
    config = ReplicationConfig(total_servers=3, copies=2, delta=512)

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), config,
                timeout=2.0, batch_bytes=1,  # flush every record
                send_queue_limit=2, slow_strike_limit=3,
                keepalive_interval=0.0,  # isolate the strike policy
            )
            await log.initialize()
            if "s1" not in log.write_set:
                # make the proxied server a write-set member
                log._write_set[0] = "s1"
            # Stop s1's transport from draining: frames pile up in its
            # bounded queue exactly as they would behind a zero TCP
            # window, without having to fill real kernel buffers.
            stalled = asyncio.Event()

            async def blocked_drain():
                await stalled.wait()

            log._conns["s1"]._writer.drain = blocked_drain
            t0 = time.monotonic()
            for i in range(40):
                await log.write(f"r{i}".encode())
            elapsed = time.monotonic() - t0
            assert "s1" not in log.write_set
            assert log.slow_strikes >= 3
            assert log.server_switches >= 1
            # 40 writes against a stalled member finished in well under
            # the 2s timeout: nothing waited on the stalled socket.
            assert elapsed < 1.5
            high = await log.force()
            assert high == log.end_of_log()
            await log.close()
            stalled.set()

    asyncio.run(main())


def test_keepalive_demotes_hung_server(tmp_path):
    """A hung server is detected by pings and routed around quickly.

    After the stall, the keep-alive task needs ``keepalive_misses + 1``
    silent intervals to abort the connection; the next force must then
    complete on a spare without waiting out the 2 s call timeout.
    """

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), CONFIG,
                timeout=2.0,
                keepalive_interval=0.15, keepalive_misses=2,
            )
            await log.initialize()
            if "s1" not in log.write_set:
                log._write_set[0] = "s1"
            for i in range(4):
                await log.write(f"warm{i}".encode())
            await log.force()

            cluster.proxy.stall()
            # Idle period: only the keep-alive probes are talking.
            # Abort needs keepalive_misses + 1 probe intervals of
            # silence (plus one wake to observe the last pre-stall
            # pong); leave slack for event-loop jitter.
            await asyncio.sleep(0.15 * 8)
            conn = log._conns["s1"]
            assert not conn.alive, "keep-alive should have aborted s1"
            assert conn.keepalive_aborts == 1

            t0 = time.monotonic()
            await log.write(b"after-hang")
            high = await log.force()
            force_latency = time.monotonic() - t0
            assert "s1" not in log.write_set
            assert log.server_switches >= 1
            # The hung server was pre-declared dead, so the force never
            # waited on it — far under the 2 s timeout.
            assert force_latency < 1.0
            assert high == log.end_of_log()
            rec = await log.read(high)
            assert rec.data == b"after-hang"
            await log.close()

    asyncio.run(main())


def test_quarantine_blocks_immediate_readoption(tmp_path):
    """A keep-alive-aborted server is not instantly reconnected.

    Reconnects to a SIGSTOP'd process *succeed* at the TCP level, so
    without a quarantine the replacement scan would re-adopt the hung
    server and stall for a full timeout.
    """

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=2.0, client_id="c1",
                                    keepalive_interval=0.1,
                                    keepalive_misses=2)
            await conn.connect()
            cluster.proxy.stall()
            deadline = asyncio.get_running_loop().time() + 3.0
            while conn.alive:
                assert asyncio.get_running_loop().time() < deadline, \
                    "keep-alive never aborted the stalled connection"
                await asyncio.sleep(0.02)
            assert conn.quarantined_until > asyncio.get_running_loop().time()
            with pytest.raises(ServerUnavailable, match="quarantined"):
                await conn.connect()
            await conn.close()

    asyncio.run(main())
