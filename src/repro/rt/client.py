"""The asyncio replicated-log client (N-of-M over real TCP).

Implements the client side of Section 3.1.2 and the grouped interface
of Section 4.2 against :class:`~repro.rt.server.LogServerDaemon`
processes, reusing the core logic unchanged: interval merging
(:class:`~repro.core.intervals.MergedIntervalMap`), the ``(M, N, δ)``
configuration, the Appendix I quorum rule for epoch numbers, and the
:class:`~repro.core.retry.RetryPolicy` backoff schedule (slept on
``asyncio.sleep``).

Write path (grouped/streamed):

* :meth:`AsyncReplicatedLog.write` buffers records and streams a
  WriteLog batch to the ``N`` write-set servers when a network
  packet's worth has accumulated — no acknowledgment;
* :meth:`AsyncReplicatedLog.force` sends each write-set server, as
  one ForceLog, the window records it has not been sent yet (or the
  window's last record when it has them all) and awaits a NewHighLSN
  ack from every write-set server; a window is bounded by ``δ`` ("the
  client must limit the number of records contained in unacknowledged
  WriteLog and ForceLog messages"), so a force is triggered implicitly
  when the window fills;
* a server that finds a gap NAKs it with MissingInterval and stores
  nothing past it; the client re-sends the missing records, or
  announces NewInterval when they are not in the window, and re-sends
  the window above them as a ForceLog (§4.2);
* a write-set server that dies is replaced mid-stream: the client
  picks a spare, announces the fresh interval with NewInterval, and
  re-sends the unacknowledged window there ("a client can switch
  servers when necessary").

Restart (:meth:`AsyncReplicatedLog.initialize`) gathers interval lists
from at least ``M − N + 1`` servers, merges them, draws a fresh epoch
from the replicated generator (majority read + majority write over the
same connections), copies the last ``δ`` records under the new epoch,
appends ``δ`` not-present guards, and installs atomically — the exact
procedure of :mod:`repro.core.recovery`, spoken over the wire.

Degraded servers (slow, hung, disk-full) are handled without blocking
the batch path: a connection's only send queue is its transport's
write buffer, bounded at :data:`SEND_BUFFER_BYTES`; consecutive
flushes that find it full strike a slow server out of the write set
(the same Section 5.4 switch a crash triggers),
keep-alive pings demote a hung server in about two probe intervals and
quarantine it against instant re-adoption, and
:meth:`AsyncReplicatedLog.truncate` announces a Section 5.3 truncation
point ("records below it will never be read again") to every server so
they can reclaim log space.
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_right
from operator import itemgetter
from typing import Awaitable, Callable, Mapping

from ..core.config import ReplicationConfig
from ..core.errors import (
    LogError,
    LogFenced,
    LSNNotWritten,
    NotEnoughServers,
    NotInitialized,
    RecordNotPresent,
    ServerUnavailable,
    TenantQuotaExceeded,
)
from ..core.epoch import new_id
from ..core.intervals import MergedIntervalMap
from ..core.procedure import Procedure, Step
from ..core.records import (
    Epoch,
    LogRecord,
    LSN,
    StoredRecord,
    trusted_stored_record,
)
from ..core.recovery import (
    RecoveryResult,
    fetch_record,
    install_preference,
    restart,
    takeover,
)
from ..core.retry import RetryPolicy
from ..net.codec import (
    FrameReader,
    bound_socket_reads,
    encode_stored_record,
    frame,
    frame_iov,
)
from ..net.messages import (
    ERR_FENCED,
    ERR_QUOTA,
    MAX_RECORDS_ANY,
    ErrorReply,
    ForceLogMsg,
    Message,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    PingMsg,
    PongMsg,
    ReadLogForwardCall,
    ReadLogReply,
    TruncateLogCall,
    TruncateReply,
    WriteLogMsg,
    call_message,
    reply_value,
)
from ..net.packet import PACKET_PAYLOAD_BYTES
from . import clientfault
from .placement import PlacementDirectory

#: Unsent bytes a connection lets its transport hold — asyncio's own
#: 64 KiB high-water mark.  Above it :meth:`ServerConnection.try_send`
#: refuses the frame (the slow-server strike) and the waiting sends
#: park in ``drain()``.
SEND_BUFFER_BYTES = 64 * 1024
#: Consecutive send-buffer-full strikes that demote a write-set server
#: (the Section 5.4 "switch servers when necessary").
SLOW_STRIKE_LIMIT = 3


def _reply_error(server_id: str, reply: ErrorReply) -> Exception:
    """The exception a typed ErrorReply maps to.

    ``ERR_QUOTA`` is a fleet-wide admission condition — back off, do
    not switch servers; ``ERR_FENCED`` means the stream's ownership
    was taken over at a higher epoch — *terminal* for this writer, so
    it must surface as :class:`LogFenced` (never
    :class:`ServerUnavailable`, which would burn spares retrying an
    operation no server will ever accept again); everything else stays
    the per-server failure the core algorithm routes around.
    """
    if reply.code == ERR_QUOTA:
        return TenantQuotaExceeded(server_id, reply.reason)
    if reply.code == ERR_FENCED:
        return LogFenced(server_id,
                         reason=f"log server {server_id!r}: {reply.reason}")
    return ServerUnavailable(server_id, reply.reason)


class ServerConnection:
    """One TCP connection to one log server, with reply routing.

    The stream interleaves three traffic classes: in-order replies to
    synchronous calls, NewHighLSN force acknowledgments, and
    unsolicited MissingInterval negative acknowledgments.  A reader
    task dispatches each: acks resolve every force waiter at or below
    the acknowledged LSN, MissingInterval goes to ``on_missing``, and
    everything else answers the oldest pending call (TCP preserves
    request order, and the daemon replies inline).

    Outbound frames go straight to the transport, in call order; its
    write buffer (on top of the kernel's) is the only send queue.
    ``sent_high`` is the highest LSN of the current stream handed to
    it: a force sends this server only the records above it.  Anything
    that may have lost a handed-over frame — a new connection, an
    abort, an ErrorReply — sets it back to 0, so the next force carries
    the whole window again.
    :meth:`try_send` refuses a frame while more than
    :data:`SEND_BUFFER_BYTES` are unsent instead of waiting — the
    signal the client's slow-server policy counts — and :meth:`send`,
    :meth:`call` and :meth:`force` wait for the buffer to drain under
    the timer that bounds their reply.  When ``keepalive_interval`` is
    set, a probe task pings the server every interval;
    ``keepalive_misses`` consecutive silent intervals (no bytes
    received at all) abort the connection and quarantine it briefly so
    a hung (e.g. SIGSTOP'd) process is not immediately re-adopted by
    reconnect.
    """

    def __init__(
        self,
        server_id: str,
        host: str,
        port: int,
        *,
        timeout: float = 5.0,
        on_missing: Callable[[str, MissingIntervalMsg], None] | None = None,
        client_id: str = "-",
        keepalive_interval: float = 0.0,
        keepalive_misses: int = 2,
    ):
        self.server_id = server_id
        self.host = host
        self.port = port
        self.timeout = timeout
        self.on_missing = on_missing
        self.client_id = client_id
        self.keepalive_interval = keepalive_interval
        self.keepalive_misses = keepalive_misses
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._keepalive_task: asyncio.Task | None = None
        self._pending: list[asyncio.Future] = []
        self._force_waiters: list[tuple[LSN, asyncio.Future]] = []
        self._last_rx: float = 0.0
        self.alive = False
        #: the highest LSN of the current stream handed to the
        #: transport (0: nothing is known to have been sent).
        self.sent_high: LSN = 0
        #: monotonic deadline before which reconnects are refused; set
        #: when keep-alive declares the peer hung.
        self.quarantined_until: float = 0.0
        self.queue_full_events = 0
        self.pings_sent = 0
        self.keepalive_aborts = 0

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        if loop.time() < self.quarantined_until:
            raise ServerUnavailable(self.server_id,
                                    "quarantined after keep-alive failure")
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServerUnavailable(self.server_id, str(exc)) from exc
        bound_socket_reads(self._writer.transport)
        self._writer.transport.set_write_buffer_limits(
            high=SEND_BUFFER_BYTES)
        # A fresh connection must never inherit reply-routing state:
        # a future left over from the dead connection would be answered
        # by the new stream's *first* reply, shifting every positional
        # match after it by one (crash point client.force.ack:0).
        stale = ServerUnavailable(self.server_id,
                                  "connection replaced before reply")
        for fut in self._pending:
            if not fut.done():
                fut.set_exception(stale)
        for _, fut in self._force_waiters:
            if not fut.done():
                fut.set_exception(stale)
        self._pending = []
        self._force_waiters = []
        self.sent_high = 0
        self.alive = True
        self._last_rx = loop.time()
        self._reader_task = asyncio.create_task(self._read_loop())
        if self.keepalive_interval > 0:
            self._keepalive_task = asyncio.create_task(self._keepalive_loop())

    # -- background tasks ---------------------------------------------

    async def _read_loop(self) -> None:
        loop = asyncio.get_running_loop()
        frames = FrameReader(self._reader)
        try:
            while True:
                msg = await frames.read_message()
                if msg is None:
                    break
                self._last_rx = loop.time()
                if isinstance(msg, ErrorReply):
                    # A refused WriteLog or ForceLog stored nothing.
                    self.sent_high = 0
                if isinstance(msg, NewHighLSNMsg):
                    self._ack_forces(msg.new_high_lsn)
                elif isinstance(msg, MissingIntervalMsg):
                    if self.on_missing is not None:
                        self.on_missing(self.server_id, msg)
                elif isinstance(msg, PongMsg):
                    pass  # receipt alone refreshed the liveness clock
                else:
                    if self._pending:
                        self._pending.pop(0).set_result(msg)
                    elif (isinstance(msg, ErrorReply)
                          and self._force_waiters):
                        # A force refused before durability (tenant
                        # quota, wedged storage, failed group fsync):
                        # fail the oldest waiter now instead of letting
                        # it burn the full ack timeout.
                        _, fut = self._force_waiters.pop(0)
                        if not fut.done():
                            fut.set_exception(
                                _reply_error(self.server_id, msg))
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        finally:
            frames.close()
            self._abort("connection lost")

    async def _keepalive_loop(self) -> None:
        """Ping an idle connection; declare it hung after enough misses.

        Any inbound traffic counts as life.  A hung server accepts the
        ping into its socket buffer but never answers, so after
        ``keepalive_misses`` silent probe intervals (~2 by default) the
        connection is aborted and quarantined — failing every pending
        future now rather than letting callers wait out full timeouts.
        """
        loop = asyncio.get_running_loop()
        misses = 0
        token = 0
        last_probe = loop.time()
        while True:
            await asyncio.sleep(self.keepalive_interval)
            if not self.alive:
                return
            # A miss is "nothing received since the previous probe" —
            # not "idle longer than the interval", which would race
            # against the pong arriving a hair after each probe.
            if self._last_rx >= last_probe:
                misses = 0
            else:
                misses += 1
                if misses > self.keepalive_misses:
                    self.keepalive_aborts += 1
                    self._abort(
                        "keep-alive: no response in "
                        f"{misses} probe intervals",
                        quarantine=self.keepalive_interval
                        * (self.keepalive_misses + 1),
                    )
                    return
            last_probe = loop.time()
            token += 1
            self.pings_sent += 1
            self.try_send(PingMsg(self.client_id, token=token))

    # -- bookkeeping ---------------------------------------------------

    def _ack_forces(self, acked: LSN) -> None:
        remaining = []
        for high, fut in self._force_waiters:
            if high <= acked:
                if not fut.done():
                    fut.set_result(acked)
            else:
                remaining.append((high, fut))
        self._force_waiters = remaining

    def _abort(self, reason: str, *, quarantine: float = 0.0) -> None:
        """Declare the connection dead: fail futures, cancel tasks.

        Safe to call from within any of the connection's own tasks (a
        task never cancels itself) and idempotent.  This is the single
        teardown path, so a timed-out call can no longer leave a reader
        task running against a list of already-failed futures.
        """
        was_alive = self.alive
        self.alive = False
        self.sent_high = 0
        if quarantine > 0:
            self.quarantined_until = (
                asyncio.get_running_loop().time() + quarantine
            )
        exc = ServerUnavailable(self.server_id, reason)
        for fut in self._pending:
            if not fut.done():
                fut.set_exception(exc)
        for _, fut in self._force_waiters:
            if not fut.done():
                fut.set_exception(exc)
        self._pending = []
        self._force_waiters = []
        if not was_alive:
            return
        current = asyncio.current_task()
        for task in (self._reader_task, self._keepalive_task):
            if task is not None and task is not current:
                task.cancel()
        # Unsent bytes go with the connection; close() started a
        # flushing close first and is left to finish it.
        if not self._writer.transport.is_closing():
            self._writer.transport.abort()

    # -- sending -------------------------------------------------------

    def _require_alive(self) -> None:
        if not self.alive:
            raise ServerUnavailable(self.server_id, "not connected")

    def _write(self, msg: Message,
               bufs: list[bytes] | None = None) -> None:
        """Hand one frame to the transport; ``bufs`` may carry it
        pre-encoded as an iovec (:func:`repro.net.codec.frame_iov`),
        shared unchanged by every connection sending the same frame."""
        self._require_alive()
        self._writer.writelines(bufs if bufs is not None else (frame(msg),))

    async def _wait(self, reason: str, fut: asyncio.Future | None = None):
        """Wait for the transport to drain, then for ``fut``.

        Both under one ``call_later`` handle — cancelled on the
        (overwhelmingly common) timely outcome, where an
        ``asyncio.wait_for`` would create and tear down a task per
        wait.  A fired one aborts the connection with ``reason``,
        which fails ``fut`` and every other pending future with
        :class:`ServerUnavailable` and releases a parked ``drain()``.
        """
        handle = asyncio.get_running_loop().call_later(
            self.timeout, self._abort, reason)
        try:
            try:
                await self._writer.drain()
            except OSError as exc:
                self._abort(f"send failed: {exc}")
            if fut is not None:
                return await fut
            self._require_alive()
        finally:
            handle.cancel()

    def try_send(self, msg: Message,
                 bufs: list[bytes] | None = None) -> bool:
        """Send an asynchronous message without ever waiting.

        Returns ``False`` while more than :data:`SEND_BUFFER_BYTES` are
        unsent — the slow-server signal; raises
        :class:`ServerUnavailable` when the connection is dead.  Used
        for WriteLog streaming, where skipping a batch is safe because
        ``sent_high`` stays below it and the next send carries it.
        """
        self._require_alive()
        if (self._writer.transport.get_write_buffer_size()
                > SEND_BUFFER_BYTES):
            self.queue_full_events += 1
            return False
        self._write(msg, bufs)
        return True

    async def send(self, msg: Message,
                   bufs: list[bytes] | None = None) -> None:
        """Send a message, waiting (bounded) for the transport to drain."""
        self._write(msg, bufs)
        await self._wait("send queue stalled")

    async def call(self, msg: Message) -> Message:
        """Send a synchronous call; await its reply in order.

        An :class:`ErrorReply` surfaces as :class:`ServerUnavailable`
        — the per-server failure the core algorithm already knows how
        to route around.  A timeout tears the connection down (reply
        matching is positional, so a late reply must never be allowed
        to answer the wrong call) and fails this and every other
        pending future through :meth:`_abort`.
        """
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._write(msg)
        # Registered only once the frame is written: a dead connection
        # raised above, so it cannot leave a stale future in the
        # positional routing list, where it would swallow the first
        # reply after a reconnect.  No await between the write and this
        # append, so the reply cannot arrive first.
        self._pending.append(fut)
        reply = await self._wait("call timed out", fut)
        if isinstance(reply, ErrorReply):
            raise _reply_error(self.server_id, reply)
        return reply

    async def force(self, msg: ForceLogMsg,
                    bufs: list[bytes] | None = None) -> LSN:
        """Send a ForceLog and await its NewHighLSN acknowledgment."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._write(msg, bufs)
        self.sent_high = msg.high_lsn
        # After the write for the same reason as in call(): a dead
        # connection must not leak a waiter that a later connection's
        # ack would resolve as if this force had been acknowledged.
        self._force_waiters.append((msg.high_lsn, fut))
        return await self._wait("force ack timed out", fut)

    async def close(self) -> None:
        if self.alive:
            self._writer.close()  # deliberate: flush what is unsent
        self._abort("closed")
        for task in (self._reader_task, self._keepalive_task):
            if task is not None:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._reader_task = self._keepalive_task = None
        if self._writer is not None:
            # A flush the peer never takes is given up on, like a send.
            handle = asyncio.get_running_loop().call_later(
                self.timeout, self._writer.transport.abort)
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                handle.cancel()


async def async_retry(
    fn: Callable[[], Awaitable],
    policy: RetryPolicy,
    rng: random.Random,
    retry_on: tuple[type[BaseException], ...] = (NotEnoughServers,),
    on_retry: Callable[[int], Awaitable] | None = None,
):
    """Await ``fn()`` until it succeeds or ``policy`` is exhausted.

    A ``retry_on`` error before the last attempt runs ``on_retry`` and
    sleeps the policy's next delay on the event loop; any other error,
    or the last attempt's, propagates.
    """
    attempt = 0
    while True:
        try:
            return await fn()
        except retry_on:
            if attempt >= policy.max_attempts - 1:
                raise
            if on_retry is not None:
                await on_retry(attempt)
            await asyncio.sleep(policy.delay(attempt, rng))
            attempt += 1


def _attributed(merged: MergedIntervalMap, server_id: str, lsn: LSN,
                records: tuple[StoredRecord, ...],
                ) -> tuple[StoredRecord, ...]:
    """The prefix of ``records`` (a ReadLog reply of ``server_id``) that
    ``merged`` says the server holds: LSNs ``lsn``, ``lsn + 1``, … each
    at the epoch of the segment it falls in.  Walks the map's segments
    once — the cost per record is two comparisons."""
    segments = merged.segments()
    taken = 0
    for lo, hi, epoch, servers in segments[
            bisect_right(segments, lsn, key=itemgetter(0)) - 1:]:
        if lo > lsn or server_id not in servers:
            break
        for record in records[taken:taken + hi - lsn + 1]:
            if record.lsn != lsn or record.epoch != epoch:
                return records[:taken]
            taken += 1
            lsn += 1
        if taken == len(records):
            break
    return records[:taken]


class AsyncReplicatedLog:
    """Client-side replicated log over ``M`` real servers, ``N`` copies.

    ``servers`` maps server id → ``(host, port)``, or is a
    :class:`~repro.rt.placement.PlacementDirectory` — then the roster,
    the ``(M, N, δ)`` configuration, and the write-set preference
    order are all computed from the fleet spec (``config`` may be
    omitted), and :meth:`apply_placement` migrates the write set live
    when the roster changes.  The instance is not safe for concurrent
    use by multiple tasks (the paper's log is single-client by design;
    run one instance per client task).
    """

    def __init__(
        self,
        client_id: str,
        servers: "Mapping[str, tuple[str, int]] | PlacementDirectory",
        config: ReplicationConfig | None = None,
        *,
        retry_policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
        timeout: float = 5.0,
        keepalive_interval: float = 0.5,
        keepalive_misses: int = 2,
    ):
        self._placement: PlacementDirectory | None = None
        if isinstance(servers, PlacementDirectory):
            self._placement = servers
            if config is None:
                config = servers.config()
            servers = servers.addresses()
        if config is None:
            raise NotEnoughServers(
                "config is required unless servers is a PlacementDirectory"
            )
        if len(servers) != config.total_servers:
            raise NotEnoughServers(
                f"configuration names M={config.total_servers} servers "
                f"but {len(servers)} addresses were supplied"
            )
        self.client_id = client_id
        self.config = config
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.rng = rng if rng is not None else random.Random(0)
        self.timeout = timeout
        self._conn_params = dict(keepalive_interval=keepalive_interval,
                                 keepalive_misses=keepalive_misses)
        self._conns: dict[str, ServerConnection] = {
            sid: self._make_conn(sid, host, port)
            for sid, (host, port) in servers.items()
        }
        self._strikes: dict[str, int] = {}
        self._switch_lock = asyncio.Lock()
        self._merged: MergedIntervalMap | None = None
        self._epoch: Epoch = 0
        self._next_lsn: LSN = 1
        self._write_set: list[str] = []
        #: the unacknowledged window: every record written since the
        #: last fully-acked force, in LSN order.
        self._window: list[StoredRecord] = []
        #: their wire images, encoded exactly once at write() time and
        #: shared by every frame that carries the record.
        self._window_enc: list[bytes] = []
        #: image bytes written since the last WriteLog batch.
        self._buffer_bytes = 0
        self._last_record: StoredRecord | None = None
        self._last_record_enc: bytes | None = None
        # Bookkeeping for experiments and tests:
        self.writes_performed = 0
        self.forces_performed = 0
        self.reads_performed = 0
        self.recoveries_performed = 0
        self.server_switches = 0
        self.missing_intervals_seen = 0
        self.slow_strikes = 0
        self.truncations_requested = 0
        self.records_truncated = 0
        self.quota_throttles = 0
        self.rebalance_moves = 0
        self.takeovers_performed = 0
        self.fences_installed = 0

    # -- connection management ----------------------------------------

    def _make_conn(self, sid: str, host: str, port: int) -> ServerConnection:
        return ServerConnection(sid, host, port, timeout=self.timeout,
                                on_missing=self._on_missing,
                                client_id=self.client_id,
                                **self._conn_params)

    def _candidate_order(self) -> list[str]:
        """Servers in the order recovery installs and switches try them.

        With a placement directory this is the client's ring-walk
        preference (write set first, then spares), so a deliberate
        rebalance and a crash-driven Section 5.4 switch land on the
        same replacement.  Without one it is the historical sorted-id
        order.  Connections outside the current roster (still draining
        after a rebalance) sort last.
        """
        if self._placement is None:
            return sorted(self._conns)
        pref = [sid for sid in self._placement.preference(self.client_id)
                if sid in self._conns]
        return pref + [sid for sid in sorted(self._conns)
                       if sid not in pref]

    async def _ensure_connections(self) -> list[str]:
        """(Re)connect every dead server; return ids of live ones."""
        for conn in self._conns.values():
            if not conn.alive:
                try:
                    await conn.connect()
                except ServerUnavailable:
                    continue
        return [sid for sid, conn in self._conns.items() if conn.alive]

    def _on_missing(self, server_id: str, msg: MissingIntervalMsg) -> None:
        """Answer a MissingInterval NAK: re-send, or NewInterval (§4.2).

        "When a client receives a MissingInterval message it will
        either resend the missing log records in a ForceLog message, or
        use the NewInterval message to inform the server that it should
        ignore the missing log records and start a new interval."  The
        server stored nothing from the gapped batch on, so the answer
        always ends in a ForceLog of the unacknowledged records from the
        gap on — its ack is the one a parked force waits for:

        * the missing range lies in the window: the window from ``lo``;
        * it does not (those records are acknowledged elsewhere, or this
          server was out of the write set when they were written):
          NewInterval at the window's first LSN, then the whole window.

        With nothing unacknowledged, the window is the last forced
        record — what a force sends as its probe.  A full send buffer
        drops the answer — the force it leaves waiting times out like a
        lost ack.
        """
        self.missing_intervals_seen += 1
        conn = self._conns.get(server_id)
        if conn is None or not conn.alive or not self._epoch:
            return
        records, encs = self._unacked()
        if not records:
            return
        start = records[0].lsn
        try:
            if msg.lo >= start:
                i = msg.lo - start
            else:
                i = 0
                if not conn.try_send(NewIntervalMsg(
                        self.client_id, self._epoch, starting_lsn=start)):
                    return
            refill = ForceLogMsg.trusted(self.client_id, self._epoch,
                                         tuple(records[i:]))
            if conn.try_send(refill, frame_iov(refill, encs[i:])):
                conn.sent_high = refill.high_lsn
        except ServerUnavailable:
            pass

    def _unacked(self) -> tuple[list[StoredRecord], list[bytes]]:
        """The records a force must get acknowledged, and their images:
        the window, or — when it is empty — this epoch's last forced
        record, re-forced as a probe so the ack still carries a
        durability promise for this epoch; nothing before the first
        force of an epoch."""
        if self._window:
            return self._window, self._window_enc
        if self._last_record is None or self._last_record.epoch != self._epoch:
            return [], []
        return [self._last_record], [self._last_record_enc]

    def _frames(self, kind: type[WriteLogMsg],
                records: list[StoredRecord] | tuple[StoredRecord, ...],
                encs: list[bytes], *, whole: bool = False,
                probe: bool = False,
                ) -> dict[str, tuple[WriteLogMsg, list[bytes]]]:
        """Each write-set server's frame of ``kind``: the ``records``
        above its ``sent_high`` (all of them if ``whole``).  A server
        that has them all gets the last one when ``probe`` is set and
        no frame otherwise; servers with one mark share one frame."""
        base = records[0].lsn
        last = len(records) - 1
        shared: dict[int, tuple[WriteLogMsg, list[bytes]]] = {}
        frames = {}
        for sid in self._write_set:
            i = 0 if whole else self._conns[sid].sent_high + 1 - base
            if i < 0:
                i = 0
            elif i > last:
                if not probe:
                    continue
                i = last
            out = shared.get(i)
            if out is None:
                msg = kind.trusted(self.client_id, self._epoch,
                                   tuple(records[i:]))
                out = shared[i] = (msg, frame_iov(msg, encs[i:]))
            frames[sid] = out
        return frames

    # -- lifecycle ----------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self._merged is not None

    async def _drive(self, procedure: Procedure):
        """Run a core procedure over the server connections.

        Each call goes to the named server's connection and its reply
        (or the error it maps to) goes back into the procedure; a
        server without a live connection is unavailable.  Each step
        ``x`` is the client crash point ``client.x``.
        """
        value = failure = None
        while True:
            try:
                request = (procedure.send(value) if failure is None
                           else procedure.throw(failure))
            except StopIteration as stop:
                return stop.value
            value = failure = None
            if type(request) is Step:
                clientfault.hit("client." + request.name)
                continue
            conn = self._conns.get(request.server_id)
            try:
                if conn is None or not conn.alive:
                    raise ServerUnavailable(request.server_id,
                                            "not connected")
                value = reply_value(await conn.call(
                    call_message(self.client_id, request)))
            except LogError as exc:
                failure = exc

    def _install_order(self) -> list[str]:
        """Recovery's copy targets: the old write set, then the rest."""
        return install_preference(self._candidate_order(), self._write_set)

    async def _recover_with(self, connected: str, procedure_for) -> None:
        """Run ``procedure_for()`` to completion through quorum shortfalls.

        Every attempt reconnects dead servers first, passes the crash
        point ``connected``, drives a fresh procedure and adopts the
        :class:`RecoveryResult` it returns.
        """

        async def attempt() -> RecoveryResult:
            await self._ensure_connections()
            clientfault.hit(connected)
            return await self._drive(procedure_for())

        async def on_retry(_attempt: int) -> None:
            await self._ensure_connections()

        result = await async_retry(attempt, self.retry_policy, self.rng,
                                   on_retry=on_retry)
        self._merged = result.merged
        self._epoch = result.epoch
        self._next_lsn = result.next_lsn
        self._write_set = list(result.write_set)
        self._window = []
        self._window_enc = []
        self._buffer_bytes = 0
        for conn in self._conns.values():
            conn.sent_high = 0   # a new epoch is a new stream
        self._last_record = result.staged[-1]
        self._last_record_enc = encode_stored_record(result.staged[-1])
        self.fences_installed += len(result.fenced_on)
        self.recoveries_performed += 1

    async def initialize(self) -> None:
        """The client restart procedure of Section 3.1.2, over TCP.

        Appendix I's generator representatives are the log servers
        themselves, so NewID travels over the same connections.
        """
        servers = sorted(self._conns)
        await self._recover_with("client.init.connect", lambda: restart(
            self.config, new_id(servers),
            gather_order=servers, install_order=self._install_order(),
        ))

    async def takeover(self) -> None:
        """Seize ownership of the stream from a possibly-live writer.

        The linearizable handoff of
        :func:`repro.core.recovery.takeover`, over TCP: a fence at the
        new epoch is durable on at least ``M − N + 1`` servers before
        recovery runs, so a merely partitioned old owner gets a
        terminal :class:`LogFenced` on its next force instead of
        silently diverging the log.  Like :meth:`initialize` this
        retries on quorum shortfalls; it raises :class:`LogFenced` if a
        yet-newer owner fenced past us mid-takeover (takeovers
        linearize through the monotone fence epoch).
        """
        servers = sorted(self._conns)
        await self._recover_with("client.handoff.connect", lambda: takeover(
            self.config, new_id(servers),
            gather_order=servers, fence_order=self._candidate_order(),
            install_order=self._install_order(),
        ))
        self.takeovers_performed += 1

    def _require_init(self) -> MergedIntervalMap:
        if self._merged is None:
            raise NotInitialized(
                "the replicated log must be initialized before use"
            )
        return self._merged

    # -- the write path -----------------------------------------------

    async def write(self, data: bytes, kind: str = "data") -> LSN:
        """WriteLog: append ``data``; returns its LSN immediately.

        The record is buffered; it reaches the network when a packet
        fills, and becomes durable at the next :meth:`force` (whose ack
        covers the whole window) — exactly the paper's asynchronous
        WriteLog contract.
        """
        self._require_init()
        lsn = self._next_lsn
        # Trusted construction: the client assigns the LSN and epoch
        # itself; ``encode_stored_record`` below still rejects an
        # unregistered kind.
        record = trusted_stored_record(lsn, self._epoch, True, data, kind)
        self._next_lsn = lsn + 1
        self._window.append(record)
        # Encode once, here; every WriteLog/ForceLog frame that carries
        # this record — to any server, any number of times — reuses
        # these bytes.
        enc = encode_stored_record(record)
        self._window_enc.append(enc)
        self._buffer_bytes += len(enc)
        self.writes_performed += 1
        clientfault.hit("client.write.buffered")
        if len(self._window) >= self.config.delta:
            # δ unacknowledged records: must not run further ahead.
            await self.force()
        elif self._buffer_bytes >= PACKET_PAYLOAD_BYTES:
            await self._flush_writes()
        return lsn

    async def _flush_writes(self) -> None:
        """Stream each write-set server the window records it has not
        been sent, as one WriteLog batch.

        Sends never wait: :meth:`ServerConnection.try_send` either
        writes the frame or reports the send buffer full.  That is a
        *strike* against that server — the batch is simply skipped
        there (safe: its ``sent_high`` stays put, so its next batch or
        force carries these records too) — and ``SLOW_STRIKE_LIMIT``
        consecutive strikes demote the server from the write set
        exactly as a crash would (Section 5.4).
        """
        window = self._window
        if not window:
            return
        high = window[-1].lsn
        frames = self._frames(WriteLogMsg, window, self._window_enc)
        for sid, (msg, bufs) in frames.items():
            conn = self._conns[sid]
            try:
                sent = conn.try_send(msg, bufs)
            except ServerUnavailable:
                await self._replace_server(sid)
                continue
            if sent:
                conn.sent_high = high
                self._strikes[sid] = 0
                continue
            self.slow_strikes += 1
            strikes = self._strikes.get(sid, 0) + 1
            self._strikes[sid] = strikes
            if strikes >= SLOW_STRIKE_LIMIT:
                self._strikes[sid] = 0
                await self._replace_server(sid)
        clientfault.hit("client.flush.sent")
        self._buffer_bytes = 0
        # One scheduling point per flush: a transport buffer the socket
        # did not take at once is only emptied when this task yields, so
        # without it a burst of writes would strike a healthy server.
        await asyncio.sleep(0)

    async def force(self) -> LSN:
        """ForceLog: make every buffered record durable on N servers.

        Each write-set server is sent, as one ForceLog, the window
        records above its ``sent_high`` — what no WriteLog batch handed
        it yet — or, when it has them all, the window's last record as
        the probe its ack answers (§4.2).  A server that lost a batch
        NAKs the gap and :meth:`_on_missing` refills it; a retry sends
        the whole window.  Waits for a NewHighLSN from each write-set
        server, replacing dead servers as needed.
        """
        self._require_init()
        window, record_bufs = self._unacked()
        if not window:
            return self._next_lsn - 1
        records = tuple(window)
        retry = False

        # Forces go to every write-set server concurrently, so the ack
        # wait is max(server latency), not the sum — a hung member
        # cannot serialize the healthy ones behind it.  _replace_server
        # rewrites self._write_set in place and feeds the replacement
        # the whole window, so a server lost mid-force still leaves
        # every record on N servers.  When no spare exists it raises
        # NotEnoughServers, which the retry policy paces while outages
        # heal.
        async def forced(sid: str, msg: ForceLogMsg,
                         bufs: list[bytes]) -> LSN:
            acked = await self._conns[sid].force(msg, bufs)
            # One hit per acknowledgment as it lands, so index 0 is
            # "after a partial ack" — some write-set servers hold the
            # window durably, others may not have received it yet.
            clientfault.hit("client.force.ack")
            return acked

        async def guarded() -> LSN:
            nonlocal retry
            clientfault.hit("client.force.begin")
            frames = self._frames(ForceLogMsg, records, record_bufs,
                                  whole=retry, probe=True)
            retry = True
            targets = list(frames)
            results = await asyncio.gather(
                *(forced(sid, *frames[sid]) for sid in targets),
                return_exceptions=True,
            )
            for result in results:
                if isinstance(result, LogFenced):
                    # Ownership was taken over: checked before any
                    # per-server handling so a concurrent connection
                    # failure cannot steer this force into a server
                    # switch (and a wasted spare) when the whole
                    # stream is already lost to a higher epoch.
                    raise result
            for sid, result in zip(targets, results):
                if isinstance(result, TenantQuotaExceeded):
                    # A fleet-wide admission condition: switching
                    # servers cannot help, so back off on the retry
                    # schedule instead of burning a spare.
                    self.quota_throttles += 1
                    raise result
                if isinstance(result, ServerUnavailable):
                    if sid in self._write_set:
                        await self._replace_server(sid, records)
                elif isinstance(result, BaseException):
                    raise result
            return records[-1].lsn

        high = await async_retry(
            guarded, self.retry_policy, self.rng,
            retry_on=(NotEnoughServers, TenantQuotaExceeded),
            on_retry=self._reconnect_for_retry,
        )
        clientfault.hit("client.force.acked")
        merged = self._require_init()
        # Forced records are one consecutive LSN run by construction.
        for sid in self._write_set:
            merged.note_range(records[0].lsn, records[-1].lsn,
                              self._epoch, sid)
        self._window = []
        self._window_enc = []
        self._buffer_bytes = 0
        self._last_record = records[-1]
        self._last_record_enc = record_bufs[-1]
        self.forces_performed += 1
        return high

    async def _reconnect_for_retry(self, _attempt: int) -> None:
        await self._ensure_connections()

    async def _replace_server(
        self, dead_sid: str, pending: tuple[StoredRecord, ...] = ()
    ) -> None:
        """Swap a failed write-set server for a spare, mid-stream.

        The spare is told where the fresh interval starts (NewInterval)
        and force-fed the unacknowledged window so every pending record
        still reaches ``N`` servers.  A lock serializes switches so the
        concurrent per-server force paths cannot race two replacements
        onto the same write-set slot.
        """
        async with self._switch_lock:
            if dead_sid not in self._write_set:
                return  # another path already replaced it
            clientfault.hit("client.switch.begin")
            live = await self._ensure_connections()
            spares = [sid for sid in self._candidate_order()
                      if sid in live and sid not in self._write_set]
            pending = pending or tuple(self._window)
            for spare in spares:
                if await self._switch_member(dead_sid, spare, pending):
                    self.server_switches += 1
                    clientfault.hit("client.switch.done")
                    return
            raise NotEnoughServers(
                f"no spare server available to replace {dead_sid}"
            )

    async def _switch_member(
        self, old_sid: str, new_sid: str,
        pending: tuple[StoredRecord, ...],
    ) -> bool:
        """Section 5.4's write-set switch, one member at a time.

        Feed ``new_sid`` the unacknowledged window (NewInterval, then a
        ForceLog so the records are durable there *before* the swap),
        then replace ``old_sid`` in the write set.  Returns False if
        the incoming server refused the feed — the caller tries the
        next candidate.  Callers hold ``_switch_lock``.
        """
        merged = self._require_init()
        conn = self._conns[new_sid]
        try:
            if pending:
                await conn.send(NewIntervalMsg(
                    self.client_id, self._epoch,
                    starting_lsn=pending[0].lsn,
                ))
                await conn.force(ForceLogMsg(
                    self.client_id, self._epoch, pending
                ))
        except ServerUnavailable:
            return False
        # The incoming server holds the window but is not yet in the
        # write set — the exact mid-switch seam.
        clientfault.hit("client.switch.feed")
        index = self._write_set.index(old_sid)
        self._write_set[index] = new_sid
        self._strikes.pop(old_sid, None)
        for record in pending:
            merged.note(record.lsn, self._epoch, new_sid)
        return True

    async def apply_placement(self, directory: "PlacementDirectory") -> list[tuple[str, str]]:
        """Adopt a new placement directory, rebalancing live if needed.

        Called when the roster changes (server added or retired).  The
        client reconciles its write set with the directory's write set
        for this client id, moving each outgoing member through the
        same §5.4 switch the failure path uses — the unacknowledged
        window is forced onto the incoming server before the swap, so
        no acknowledged record ever drops below ``N`` copies.  Members
        already in the new write set stay put: a roster change of one
        server moves only the clients whose write set contained it.

        Returns the ``(old_sid, new_sid)`` pairs actually switched.
        """
        self._require_init()
        async with self._switch_lock:
            self._placement = directory
            # New roster entries need live connections before they can
            # be fed; config tracks the (possibly resized) fleet.
            addresses = directory.addresses()
            for sid, (host, port) in addresses.items():
                if sid not in self._conns:
                    self._conns[sid] = self._make_conn(sid, host, port)
            self.config = directory.config()
            await self._ensure_connections()
            target = [sid for sid in directory.write_set(self.client_id)
                      if sid in self._conns]
            outgoing = [sid for sid in self._write_set if sid not in target]
            incoming = [sid for sid in target if sid not in self._write_set]
            pending = tuple(self._window)
            moves: list[tuple[str, str]] = []
            for old_sid, new_sid in zip(outgoing, incoming):
                if await self._switch_member(old_sid, new_sid, pending):
                    moves.append((old_sid, new_sid))
                    self.rebalance_moves += 1
            # Drop connections to servers that left the roster once
            # they are out of the write set; reads of old records they
            # stored are redirected by the merged interval map to the
            # surviving copies.
            for sid in list(self._conns):
                if sid not in addresses and sid not in self._write_set:
                    self._conns.pop(sid)._abort("left roster")
            return moves

    # -- Section 5.3: log space management ----------------------------

    async def truncate(self, low_water: LSN) -> int:
        """Tell every reachable server to reclaim records below ``low_water``.

        The paper's Section 5.3 contract: the client promises that
        records below the truncation point "will never be read again",
        and servers are free to recycle the space.  The low-water mark
        is clamped to the unacknowledged window (truncating unacked
        records would let an ack cover records no server retains).
        Servers that are down simply miss this round; they reclaim at
        the next one.  Returns the total records dropped across
        servers.
        """
        merged = self._require_init()
        if self._window:
            low_water = min(low_water, self._window[0].lsn)
        dropped = 0
        for sid in sorted(self._conns):
            conn = self._conns[sid]
            if not conn.alive:
                continue
            try:
                reply = await conn.call(
                    TruncateLogCall(self.client_id, low_water_lsn=low_water,
                                    epoch=self._epoch)
                )
            except ServerUnavailable:
                continue
            if isinstance(reply, TruncateReply):
                dropped += reply.records_dropped
                # Index 0 = after the first server applied the mark but
                # before the rest heard about it.
                clientfault.hit("client.truncate.reply")
        merged.prune_below(low_water)
        self.truncations_requested += 1
        self.records_truncated += dropped
        return dropped

    # -- reads --------------------------------------------------------

    async def read(self, lsn: LSN) -> LogRecord:
        """ReadLog: the record written with LSN ``lsn``."""
        merged = self._require_init()
        entry = merged.entry(lsn)
        if entry is None:
            raise LSNNotWritten(lsn)
        record = await self._drive(fetch_record(entry))
        self.reads_performed += 1
        if not record.present:
            raise RecordNotPresent(lsn)
        return record.to_log_record()

    async def read_forward(self, lsn: LSN) -> tuple[StoredRecord, ...]:
        """ReadLogForward from any server known to store ``lsn``: the
        records from there on that one reply carries *and* the merged
        map attributes to that server — consecutive LSNs from ``lsn``,
        each at its winning epoch, none past :meth:`end_of_log`.

        A server's reply jumps over LSNs it does not store (written
        while it was out of the write set) and may carry copies a later
        epoch superseded; a caller stepping ``records[-1].lsn + 1``
        must meet neither, so the reply is cut where the map stops
        vouching for it and the next call goes to whoever holds the
        rest.
        """
        merged = self._require_init()
        for sid in merged.servers_for(lsn):
            conn = self._conns.get(sid)
            if conn is None or not conn.alive:
                continue
            try:
                reply = await conn.call(ReadLogForwardCall(
                    self.client_id, lsn, MAX_RECORDS_ANY))
            except ServerUnavailable:
                continue
            if isinstance(reply, ReadLogReply):
                records = _attributed(merged, sid, lsn, reply.records)
                if records:
                    return records
        raise NotEnoughServers(f"no server holding LSN {lsn} is reachable")

    def end_of_log(self) -> LSN:
        """EndOfLog: the high value in the merged interval list."""
        merged = self._require_init()
        return merged.high_lsn() or 0

    @property
    def current_epoch(self) -> Epoch:
        return self._epoch

    @property
    def write_set(self) -> tuple[str, ...]:
        return tuple(self._write_set)

    async def close(self) -> None:
        for conn in self._conns.values():
            await conn.close()
