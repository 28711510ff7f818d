"""Back-pressure and hung-server handling, in one process.

A *hung* server is worse than a dead one: TCP connects still succeed
and small sends still land in kernel buffers, so nothing errors — the
replies just stop.  These tests interpose the stallable
:class:`~repro.rt.chaosproxy.ChaosProxy` between the client and one
daemon to create exactly that gray failure and assert the three
defenses added for it:

* a connection's one send queue is its transport's write buffer,
  bounded at ``SEND_BUFFER_BYTES``: a stalled peer never blocks the
  batch path (``try_send`` refuses, never waits) and a waiting send
  gives up at the timeout;
* consecutive send-buffer-full strikes demote a slow server from the
  write set the same way a crash would (Section 5.4's server switch);
* keep-alive probes abort a silent connection after ~2 probe
  intervals, failing pending futures immediately instead of letting
  each caller wait out a full timeout — and the abort path cancels
  the connection's tasks (the reader-task leak regression).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import time

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import ServerUnavailable
from repro.core.records import StoredRecord
from repro.net.codec import FrameScanner, decode, frame
from repro.net.messages import (
    GeneratorReadCall,
    GeneratorReadReply,
    IntervalListCall,
    PingMsg,
    WriteLogMsg,
)
from repro.rt.client import (
    SEND_BUFFER_BYTES,
    AsyncReplicatedLog,
    ServerConnection,
)

from .inprocess import Cluster

CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def connection_tasks() -> set[asyncio.Task]:
    """The running tasks that are a :class:`ServerConnection`'s own
    loops (its callers' tasks run ``call``/``force``, not ``_*_loop``)."""
    return {task for task in asyncio.all_tasks()
            if task.get_coro().__qualname__.startswith("ServerConnection._")}


def small_listener() -> socket.socket:
    """A listening socket whose connections buffer ~4 KiB of received
    bytes in the kernel, so a peer that reads slowly (or never: nobody
    has to ``accept``) pushes back on its sender after a few frames
    instead of after megabytes."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.bind(("127.0.0.1", 0))
    sock.listen()
    return sock


def shrink_kernel_send_buffer(conn: ServerConnection) -> None:
    """The sending half of :func:`small_listener`: what the peer does
    not take shows up in ``conn``'s transport buffer, not in 4 MB of
    autotuned kernel buffer."""
    conn._writer.transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)


@contextlib.asynccontextmanager
async def deaf_connection(**params):
    """A live connection to a peer that never reads a byte."""
    with small_listener() as listener:
        conn = ServerConnection("s1", *listener.getsockname(),
                                client_id="c1", **params)
        await conn.connect()
        shrink_kernel_send_buffer(conn)
        try:
            yield conn
        finally:
            await conn.close()


def write_log(client_id: str, lsn: int, size: int) -> WriteLogMsg:
    return WriteLogMsg(client_id, 1, (
        StoredRecord(lsn=lsn, epoch=1, data=bytes([lsn % 251]) * size),))


def test_call_timeout_tears_down_connection(tmp_path):
    """A timed-out call aborts the connection and cancels its tasks.

    Regression for the reader-task leak: the old path failed the
    pending futures but left the reader task running, so a late reply
    could resolve a future belonging to a different (failed) call.
    """

    async def main():
        async with Cluster(tmp_path, proxied=True) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=0.3, client_id="c1")
            await conn.connect()
            owned = connection_tasks()
            assert owned == {conn._reader_task}  # no keep-alive asked for
            cluster.proxy.stall()
            with pytest.raises(ServerUnavailable):
                await conn.call(IntervalListCall("c1"))
            assert not conn.alive
            assert not conn._pending and not conn._force_waiters
            await asyncio.sleep(0)  # let cancellations propagate
            assert all(task.done() for task in owned)
            assert not connection_tasks()
            await conn.close()

    asyncio.run(main())


def test_silent_server_fails_every_pending_call_at_the_timeout(tmp_path):
    """``call`` arms one timer per call; the first to fire takes the
    connection — and every other pending call — down with it, and the
    replies the server finally sends can answer nothing afterwards."""

    async def main():
        async with Cluster(tmp_path, proxied=True) as cluster:
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
    """A slow server's full send buffer never blocks writes; it gets
    demoted.

    δ is large and forces are avoided, so the only pressure valve is
    the WriteLog path itself.  One write-set member stops reading; once
    the kernel has taken what it will, that connection's transport
    holds more than ``SEND_BUFFER_BYTES`` and the third consecutive
    refused flush must switch the write set — and every write call
    must return promptly, bounded by the event loop, not by the
    stalled peer.
    """
    config = ReplicationConfig(total_servers=3, copies=2, delta=512)

    async def main():
        async with Cluster(tmp_path, proxied=True) as cluster:
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), config,
                timeout=2.0,  # a 16 KiB record flushes on its own
                keepalive_interval=0.0,  # isolate the strike policy
            )
            await log.initialize()
            if "s1" not in log.write_set:
                # make the proxied server a write-set member
                log._write_set[0] = "s1"
            slow = log._conns["s1"]
            # s1 stops reading.  Its proxy and the kernel still take a
            # few hundred KiB; the shrunk send buffer keeps that from
            # being 4 MB, so 16 KiB records reach the signal quickly.
            shrink_kernel_send_buffer(slow)
            cluster.proxy.stall()
            high_water = 0
            t0 = time.monotonic()
            for i in range(100):
                await log.write(bytes(16384))
                high_water = max(
                    high_water,
                    slow._writer.transport.get_write_buffer_size())
                if "s1" not in log.write_set:
                    break
            elapsed = time.monotonic() - t0
            assert "s1" not in log.write_set
            assert high_water > SEND_BUFFER_BYTES  # the signal was real
            assert slow.queue_full_events >= 3
            assert log.slow_strikes >= 3
            assert log.server_switches >= 1
            # Every write against a stalled member finished in well
            # under the 2s timeout: nothing waited on the stalled socket.
            assert elapsed < 1.5
            high = await log.force()
            assert high == log.end_of_log()
            cluster.proxy.unstall()
            await log.close()

    asyncio.run(main())


def test_keepalive_demotes_hung_server(tmp_path):
    """A hung server is detected by pings and routed around quickly.

    After the stall, the keep-alive task needs ``keepalive_misses + 1``
    silent intervals to abort the connection; the next force must then
    complete on a spare without waiting out the 2 s call timeout.
    """

    async def main():
        async with Cluster(tmp_path, proxied=True) as cluster:
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
        async with Cluster(tmp_path, proxied=True) as cluster:
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


def test_send_on_a_transport_that_never_drains_aborts_at_the_timeout():
    """``send`` waits for ``drain()`` only as long as a call waits for
    its reply; then the connection — every pending call, every force
    waiter, every task, every unsent byte — goes."""

    async def main():
        async with deaf_connection(timeout=0.3,
                                   keepalive_interval=30.0) as conn:
            assert len(connection_tasks()) == 2  # reader + keep-alive
            while conn.try_send(write_log("c1", 1, 8192)):
                pass
            loop = asyncio.get_running_loop()
            call, force = loop.create_future(), loop.create_future()
            conn._pending.append(call)
            conn._force_waiters.append((9, force))
            started = time.monotonic()
            with pytest.raises(ServerUnavailable):
                await conn.send(write_log("c1", 2, 8192))
            assert 0.3 <= time.monotonic() - started < 1.5
            for fut in (call, force):
                assert "send queue stalled" in str(fut.exception())
            assert not conn.alive
            assert not conn._pending and not conn._force_waiters
            assert conn._writer.transport.get_write_buffer_size() == 0
            await asyncio.sleep(0)  # let cancellations propagate
            assert not connection_tasks()

    asyncio.run(main())


def test_unsent_bytes_stay_within_the_send_buffer_plus_one_frame():
    async def main():
        async with deaf_connection(timeout=0.3) as conn:
            msg = write_log("c1", 1, 8192)
            bound = SEND_BUFFER_BYTES + len(frame(msg))
            for _ in range(200):
                conn.try_send(msg)
                assert (conn._writer.transport.get_write_buffer_size()
                        <= bound)
            assert conn.queue_full_events > 150  # it was refusing
            started = time.monotonic()
            await conn.close()  # a flush nobody takes is given up on
            assert time.monotonic() - started < 1.5

    asyncio.run(main())


def test_concurrent_senders_and_keepalive_interleave_whole_frames():
    """Two callers and the keep-alive probe write to one transport, with
    ``drain()`` parking the callers again and again: the peer must see
    whole frames, each caller's in the order it sent them."""
    per_caller = 40

    async def main():
        seen: list = []
        done = asyncio.Event()

        async def slow_reader(reader, writer):
            scanner = FrameScanner()
            while sum(isinstance(m, WriteLogMsg) for m in seen) \
                    < 2 * per_caller:
                chunk = await reader.read(3000)
                assert chunk, "connection ended early"
                seen.extend(decode(f.data[4:]) for f in scanner.feed(chunk))
            assert scanner.pending_bytes == 0
            done.set()
            writer.close()

        with small_listener() as listener:
            server = await asyncio.start_server(slow_reader, sock=listener)
            conn = ServerConnection(
                "s1", *listener.getsockname(), timeout=5.0, client_id="ka",
                keepalive_interval=0.001, keepalive_misses=10**9)
            await conn.connect()
            shrink_kernel_send_buffer(conn)

            async def caller(client_id: str, size: int) -> None:
                for lsn in range(1, per_caller + 1):
                    await conn.send(write_log(client_id, lsn, size))

            await asyncio.gather(caller("a", 20_000), caller("b", 7_000))
            await asyncio.wait_for(done.wait(), 5.0)
            await conn.close()
            server.close()
            await server.wait_closed()
        for client_id in "ab":
            assert [m.low_lsn for m in seen if m.client_id == client_id] \
                == list(range(1, per_caller + 1))
        assert any(isinstance(m, PingMsg) for m in seen)

    asyncio.run(main())


def test_closed_log_leaves_no_connection_task(tmp_path):
    """A live connection owns exactly two tasks — reader and keep-alive
    — and ``AsyncReplicatedLog.close()`` ends every one of them."""

    async def main():
        async with Cluster(tmp_path, proxied=True) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG,
                                     keepalive_interval=0.05)
            await log.initialize()
            owned = connection_tasks()
            assert len(owned) == 2 * len(log._conns)
            for conn in log._conns.values():
                assert {conn._reader_task, conn._keepalive_task} <= owned
            await log.write(b"r")
            await log.force()
            assert connection_tasks() == owned
            await log.close()
            assert all(task.done() for task in owned)
            assert not connection_tasks()

    asyncio.run(main())
