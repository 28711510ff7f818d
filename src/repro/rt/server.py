"""The asyncio log-server daemon.

A real-process implementation of the grouped/streamed client–server
protocol of Section 4.2 (Figure 4-1) over TCP:

* **asynchronous** WriteLog and NewInterval — no reply; the server
  watches for LSN gaps and sends the MissingInterval negative
  acknowledgment ("a server detects lost messages when it receives a
  ForceLog or WriteLog message with log sequence numbers that are not
  contiguous with those it has previously received");
* **synchronous** ForceLog — the batch is appended, and acknowledged
  with NewHighLSN only once a group fsync has made it durable;
* **synchronous calls** IntervalList, ReadLogForward, ReadLogBackward
  (the call says how many records it wants and the reply carries up
  to that many within :data:`READ_REPLY_CAP_BYTES`; a call that names
  no number gets the paper's one LAN packet's worth), CopyLog,
  InstallCopies, and the Appendix I generator Read/Write;
* **operational messages**: Ping/Pong keep-alive probes, the Section
  5.3 TruncateLog call ("records below the truncation point will never
  be read again" — the store compacts and forgets them), and a Stats
  query exposing daemon and store counters (``repro stats``).  A
  storage failure (disk full, IO error) answers with a typed
  ErrorReply instead of dropping the connection, leaving the daemon
  readable while wedged.

One daemon serves many clients over many connections; per-client gap
tracking is daemon-wide, seeded from the durable high-water mark after
a restart.  Handlers run inline on the event loop.

Log readers read in order, so the daemon reads ahead of a scan: once a
ReadLog call continues exactly where the previous reply on its
connection ended, the next reply is built right after this one has
been written — while the client is still decoding it — and held on the
connection (:class:`_Scan`) for the call that asks for it.

Group commit is the only way a force is served — the economy the
paper's grouped interface is designed around: a ForceLog appends its
records *without* syncing and parks on a shared sync generation; a
single scheduled task then issues one ``fsync`` (crash point
``log.group-fsync``) covering every force parked so far — across all
client connections — and fans the NewHighLSN acks out afterwards.  An
ack is only ever sent for bytes the covering fsync returned for, so
the FaultFS/ALICE crash model is preserved: power loss inside the
shared sync loses *every* parked force's records and *no* ack has been
sent for any of them.
"""

from __future__ import annotations

import asyncio
import logging
import time
from bisect import bisect_left, bisect_right
from typing import Mapping, Sequence

from ..core.errors import LogError, ProtocolError, StorageError
from ..core.records import LSN
from ..net.codec import (
    FrameReader,
    bound_socket_reads,
    frame,
    frame_iov,
    frame_new_high_lsn,
)
from ..net.messages import (
    ERR_FENCED,
    ERR_GENERIC,
    ERR_PROTOCOL,
    ERR_QUOTA,
    ERR_STORAGE,
    RECORD_HEADER_BYTES,
    STATS_COUNTERS,
    AckReply,
    CopyLogCall,
    ErrorReply,
    FenceLogCall,
    FenceReply,
    ForceLogMsg,
    GeneratorReadCall,
    GeneratorReadReply,
    GeneratorWriteCall,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    Message,
    MissingIntervalMsg,
    NewIntervalMsg,
    PingMsg,
    PongMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    StatsCall,
    StatsReply,
    TruncateLogCall,
    TruncateReply,
    WriteLogMsg,
)
from ..net.packet import PACKET_PAYLOAD_BYTES
from .faultfs import FaultInjector
from .faultspec import parse_plan
from .filestore import FileLogStore
from .placement import TenantQuota, load_cluster_spec, tenant_of

log = logging.getLogger(__name__)

#: the reply budget of a ReadLog call that names no ``max_records``:
#: "as many log records as will fit in a network packet" (Section 4.2).
PACKET_REPLY_BYTES = PACKET_PAYLOAD_BYTES
#: the cap on the record bytes of a reply to a call that does — the
#: measured knee (EXPERIMENTS.md E22): a scan of 256 B records runs at
#: 88k rec/s with 16 KiB replies, 148k with 64 KiB, 175k with 256 KiB,
#: and the last adds 2 % to the daemon's resident set.
READ_REPLY_CAP_BYTES = 64 * 1024

_ReadLogCall = ReadLogForwardCall | ReadLogBackwardCall


class _Scan:
    """What one connection remembers of the scan it may be serving.

    At most one reply is held, framed and ready to write: the answer to
    ``following`` as long as the stream's version is still ``version``.
    ``held`` and ``pending`` are only ever set while ``following`` is.
    """

    __slots__ = ("following", "held", "version", "pending")

    def __init__(self) -> None:
        #: the call that would continue the last reply, if more of the
        #: stream lies beyond it; None after anything else.
        self.following: _ReadLogCall | None = None
        #: what :meth:`LogServerDaemon._read_frames` answered to
        #: ``following``, once built: the framed reply, and the call
        #: that would continue *it*.
        self.held: tuple[list[bytes], _ReadLogCall | None] | None = None
        #: :meth:`FileLogStore.stream_version` when ``held`` was built.
        self.version = 0
        #: the scheduled build of ``held``, until it has run.
        self.pending: asyncio.Handle | None = None


class LogServerDaemon:
    """One log-server node: a TCP endpoint over a :class:`FileLogStore`."""

    def __init__(
        self,
        store: FileLogStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quotas: Mapping[str, TenantQuota] | None = None,
    ):
        self.store = store
        self.host = host
        self.port = port
        #: tenant → admission limits ("*" is the default tenant); empty
        #: means no multi-tenant admission control at all.
        self.quotas: dict[str, TenantQuota] = dict(quotas or {})
        self._server: asyncio.AbstractServer | None = None
        #: next LSN expected per client ("contiguous with those it has
        #: previously received"); absent ⇒ seed from the durable high.
        self._expected: dict[str, LSN] = {}
        #: forces parked on the current sync generation:
        #: (connection writer, client id, high LSN to acknowledge).
        self._parked_forces: list[
            tuple[asyncio.StreamWriter, str, LSN]] = []
        self._sync_task: asyncio.Task | None = None
        self._sync_wanted = asyncio.Event()
        #: tenant → {client stream: last-activity monotonic time}.  A
        #: stream slot is sticky while active; a tenant quota with an
        #: ``idle_ttl_s`` lets slots idle out and be reclaimed, so
        #: tenants can churn stream ids without a daemon restart.
        self._tenant_streams: dict[str, dict[str, float]] = {}
        #: tenant → [tokens, last_refill] for the records/s bucket.
        self._tenant_buckets: dict[str, list[float]] = {}
        self.quota_rejections = 0
        self.messages_handled = 0
        self.missing_intervals_sent = 0
        self.forces_acked = 0
        self.pings_answered = 0
        #: forces that shared a predecessor's fsync (size-1 groups add 0).
        self.forces_coalesced = 0
        #: shared group syncs issued (≤ forces when coalescing works).
        self.group_syncs = 0
        #: buffers handed to the transport via vectored reply writes.
        self.send_iovecs = 0
        #: scan calls answered from the reply built ahead of them, and
        #: replies built ahead that no call ever took.
        self.read_ahead_hits = 0
        self.read_ahead_wasted = 0
        #: bytes of framed replies held across all connections: each
        #: holds at most one, of READ_REPLY_CAP_BYTES plus one record.
        self.held_reply_bytes = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._sync_task is not None and not self._sync_task.done():
            self._sync_task.cancel()
            try:
                await self._sync_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.store.close()

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        bound_socket_reads(writer.transport)
        frames = FrameReader(reader)
        images: list[bytes] = []
        scan = _Scan()
        try:
            while True:
                images.clear()
                msg = await frames.read_message(images)
                if msg is None:
                    break
                self.messages_handled += 1
                if isinstance(msg, _ReadLogCall) and msg.max_records > 1:
                    self._on_scan_call(msg, writer, scan)
                    await writer.drain()
                    continue
                if scan.following is not None:
                    self._forget_scan(scan)
                denial = self._fence_denial(msg)
                if denial is None and self.quotas \
                        and isinstance(msg, WriteLogMsg):
                    denial = self._admit(msg)
                if denial is not None:
                    replies = [denial]
                elif isinstance(msg, ForceLogMsg):
                    replies = self._park_force(msg, writer, images)
                else:
                    replies = self._dispatch(msg, images)
                if replies:
                    self._write_replies(writer, replies, images)
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:
            log.exception("connection handler failed on %s",
                          self.store.server_id)
        finally:
            self._forget_scan(scan)
            frames.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # server shutdown cancels handlers mid-close; swallow
                # so the cancellation doesn't surface as loop noise
                pass

    def _write_replies(self, writer: asyncio.StreamWriter,
                       replies: list[Message],
                       images: Sequence[bytes]) -> None:
        """Frame and send ``replies``; a ReadLogReply goes out as its
        header plus ``images`` — the stored images :meth:`_on_read`
        collected for it — without re-encoding a record."""
        bufs: list[bytes] = []
        for reply in replies:
            if isinstance(reply, ReadLogReply):
                bufs += frame_iov(reply, images)
            else:
                bufs.append(frame(reply))
        writer.writelines(bufs)
        self.send_iovecs += len(bufs)

    # -- reading ahead of a scan ----------------------------------------

    def _on_scan_call(self, msg: _ReadLogCall, writer: asyncio.StreamWriter,
                      scan: _Scan) -> None:
        """Answer a ReadLog call that asks for more than one record.

        From the held reply when it is the answer — the call is the one
        it was built for and the stream has not changed since — else
        through :meth:`_dispatch` like any call.  When the call
        continued the reply before it and the stream goes on past this
        one, the next reply is built once this one has been handed to
        the transport and whatever the loop already has queued has run
        (``call_soon``): the client decodes this reply meanwhile.  The
        first call of a scan, a call after a reply that reached the end
        of the stream, and a call for an unknown client are answered
        and nothing more.
        """
        continues = msg == scan.following
        if continues and scan.held is not None \
                and scan.version == self.store.stream_version(msg.client_id):
            bufs, following = scan.held
            self.held_reply_bytes -= sum(map(len, bufs))
            scan.held = None
            self.read_ahead_hits += 1
        else:
            self._forget_scan(scan)
            bufs, following = self._read_frames(msg)
        writer.writelines(bufs)
        self.send_iovecs += len(bufs)
        scan.following = following
        if continues and following is not None:
            scan.pending = asyncio.get_running_loop().call_soon(
                self._read_ahead, scan)

    def _read_frames(self, msg: _ReadLogCall
                     ) -> tuple[list[bytes], _ReadLogCall | None]:
        """The framed reply to ``msg``, and the call that continues it
        when stored records lie beyond the reply (else ``None``)."""
        images: list[bytes] = []
        (reply,) = self._dispatch(msg, images)
        if not isinstance(reply, ReadLogReply):
            return [frame(reply)], None
        bufs = frame_iov(reply, images)
        following = None
        if reply.records:
            lsns = self.store.stored_lsns(msg.client_id)
            if isinstance(msg, ReadLogForwardCall):
                lsn = reply.records[-1].lsn
                more = lsn < lsns[-1]
                lsn += 1
            else:
                lsn = reply.records[0].lsn
                more = lsn > lsns[0]
                lsn -= 1
            if more:
                following = type(msg)(msg.client_id, lsn, msg.max_records)
        return bufs, following

    def _read_ahead(self, scan: _Scan) -> None:
        """Build and hold the reply to ``scan.following``."""
        scan.pending = None
        call = scan.following
        scan.version = self.store.stream_version(call.client_id)
        scan.held = self._read_frames(call)
        self.held_reply_bytes += sum(map(len, scan.held[0]))

    def _forget_scan(self, scan: _Scan) -> None:
        """Anything but the continuing call ends the scan: drop the
        held reply (or the build of it that has not run yet)."""
        if scan.pending is not None:
            scan.pending.cancel()
            scan.pending = None
        if scan.held is not None:
            self.held_reply_bytes -= sum(map(len, scan.held[0]))
            scan.held = None
            self.read_ahead_wasted += 1
        scan.following = None

    # -- group commit --------------------------------------------------

    def _park_force(self, msg: ForceLogMsg, writer: asyncio.StreamWriter,
                    images: list[bytes] | None = None) -> list[Message]:
        """Append a ForceLog's records and park it on the shared sync.

        Anything that must be said *before* durability — the
        MissingInterval NAK for a gap, a typed error for a failed
        append — is returned for an inline reply, as for a WriteLog.
        The NewHighLSN ack is not: it fans out from
        :meth:`_sync_loop` after the one fsync that covers every
        parked force, and never before.
        """
        out = self._on_write(msg, images)
        if any(isinstance(reply, ErrorReply) for reply in out):
            return out  # nothing was appended; nothing to acknowledge
        self._parked_forces.append((writer, msg.client_id, msg.high_lsn))
        if self._sync_task is None or self._sync_task.done():
            self._sync_task = asyncio.create_task(self._sync_loop())
        self._sync_wanted.set()
        return out

    async def _sync_loop(self) -> None:
        """The long-lived group-commit worker: one fsync per generation.

        Parked on an :class:`asyncio.Event` between generations (no
        per-force task creation).  One scheduling yield before each
        fsync: connection handlers that already hold complete frames in
        their receive buffers get to park their forces on this
        generation, so concurrent clients share the fsync instead of
        paying one each.
        """
        while True:
            await self._sync_wanted.wait()
            self._sync_wanted.clear()
            await asyncio.sleep(0)
            while self._parked_forces:
                batch = self._parked_forces
                self._parked_forces = []
                try:
                    self.store.sync(site="log.group-fsync")
                except LogError as exc:
                    code = _error_code(exc)
                    for writer, client_id, _high in batch:
                        self._reply_safely(writer, [
                            ErrorReply(client_id, str(exc), code=code)])
                    continue
                self.group_syncs += 1
                self.forces_coalesced += len(batch) - 1
                acks: dict[
                    int, tuple[asyncio.StreamWriter, list[bytes]]] = {}
                for writer, client_id, high in batch:
                    entry = acks.setdefault(id(writer), (writer, []))
                    entry[1].append(frame_new_high_lsn(client_id, high))
                    self.forces_acked += 1
                for writer, bufs in acks.values():
                    self._write_frames_safely(writer, bufs)

    def _reply_safely(self, writer: asyncio.StreamWriter,
                      replies: list[Message]) -> None:
        """Write replies to a connection that may have died meanwhile."""
        self._write_frames_safely(writer, [frame(r) for r in replies])

    def _write_frames_safely(self, writer: asyncio.StreamWriter,
                             bufs: list[bytes]) -> None:
        """Vectored write to a connection that may have died meanwhile."""
        try:
            if not writer.is_closing():
                writer.writelines(bufs)
                self.send_iovecs += len(bufs)
        except (ConnectionError, OSError):  # pragma: no cover - races
            pass

    # -- ownership fencing ---------------------------------------------

    def _fence_denial(self, msg: Message) -> ErrorReply | None:
        """Refuse a stale-epoch append/truncate on a fenced stream.

        Checked *before* admission and before any byte reaches the
        store, so a fenced writer's ForceLog is neither appended nor
        parked for group commit — it provably commits nothing.
        NewInterval is covered too: a fenced writer must not move the
        stream's interval expectation out from under the new owner.
        Epoch 0 (a legacy/unfenced caller) passes only while no fence
        exists.
        """
        if not isinstance(msg, (WriteLogMsg, NewIntervalMsg,
                                TruncateLogCall)):
            return None
        fence = self.store.fence_epoch(msg.client_id)
        if fence and msg.epoch < fence:
            self.store.fence_rejections += 1
            return ErrorReply(
                msg.client_id,
                f"stream fenced at epoch {fence}; "
                f"epoch {msg.epoch} is superseded",
                code=ERR_FENCED,
            )
        return None

    def _on_fence(self, msg: FenceLogCall) -> list[Message]:
        """Durably install a fence epoch for the client's stream.

        Monotone: an attempt below the standing fence is answered with
        ``ERR_FENCED`` (the *installer* lost a takeover race and must
        stop, exactly like a fenced writer), an equal attempt is an
        idempotent retransmission, and a higher one is fsync'd before
        the acknowledging :class:`FenceReply` leaves the daemon.
        """
        standing = self.store.fence_write(msg.client_id, msg.epoch)
        if standing > msg.epoch:
            self.store.fence_rejections += 1
            return [ErrorReply(
                msg.client_id,
                f"stream fenced at epoch {standing}; "
                f"epoch {msg.epoch} is superseded",
                code=ERR_FENCED,
            )]
        return [FenceReply(msg.client_id, epoch=standing)]

    # -- multi-tenant admission ----------------------------------------

    def _admit(self, msg: WriteLogMsg) -> ErrorReply | None:
        """Enforce the tenant's quota on a WriteLog/ForceLog.

        Stream admission counts distinct client ids per tenant; the
        records/s limit is a token bucket charged per *forced* record
        (a force re-sends its whole unacknowledged window, so charging
        forces meters exactly what gets durably acknowledged — streamed
        WriteLogs ride free until their covering force).  A denial is a
        typed ``ErrorReply`` (``ERR_QUOTA``) and nothing is appended,
        the same reply shape a wedged disk produces — clients already
        know how to react to a refused call, they just back off instead
        of switching servers.

        When the quota sets ``idle_ttl_s``, a full stream table is
        swept before refusing a new stream: slots whose last activity
        is older than the TTL are evicted, so a tenant that churns
        short-lived stream ids is re-admitted instead of being wedged
        behind dead slots until the daemon restarts.
        """
        tenant = tenant_of(msg.client_id)
        quota = self.quotas.get(tenant)
        if quota is None:
            quota = self.quotas.get("*")
        if quota is None:
            return None
        streams = self._tenant_streams.setdefault(tenant, {})
        now = time.monotonic()
        if msg.client_id not in streams:
            if quota.idle_ttl_s and quota.max_streams \
                    and len(streams) >= quota.max_streams:
                cutoff = now - quota.idle_ttl_s
                for cid in [c for c, last in streams.items()
                            if last <= cutoff]:
                    del streams[cid]
            if quota.max_streams and len(streams) >= quota.max_streams:
                self.quota_rejections += 1
                return ErrorReply(
                    msg.client_id,
                    f"tenant {tenant!r} stream quota "
                    f"({quota.max_streams}) exhausted",
                    code=ERR_QUOTA,
                )
        streams[msg.client_id] = now
        if quota.max_records_per_s and isinstance(msg, ForceLogMsg):
            now = time.monotonic()
            bucket = self._tenant_buckets.get(tenant)
            capacity = quota.max_records_per_s * max(quota.burst_s, 0.001)
            if bucket is None:
                bucket = [capacity, now]
                self._tenant_buckets[tenant] = bucket
            tokens = min(capacity,
                         bucket[0] + (now - bucket[1])
                         * quota.max_records_per_s)
            bucket[1] = now
            if tokens < len(msg.records):
                bucket[0] = tokens
                self.quota_rejections += 1
                return ErrorReply(
                    msg.client_id,
                    f"tenant {tenant!r} over {quota.max_records_per_s:g} "
                    f"records/s",
                    code=ERR_QUOTA,
                )
            bucket[0] = tokens - len(msg.records)
        return None

    # -- dispatch -----------------------------------------------------

    def _dispatch(self, msg: Message,
                  images: list[bytes] | None = None) -> list[Message]:
        # Exactly WriteLogMsg: a ForceLogMsg (its subclass) is appended
        # only by _park_force, which owes it an ack after the fsync.
        if type(msg) is WriteLogMsg:
            return self._on_write(msg, images)
        if isinstance(msg, NewIntervalMsg):
            self._expected[msg.client_id] = msg.starting_lsn
            return []
        if isinstance(msg, IntervalListCall):
            report = self.store.interval_list(msg.client_id)
            return [IntervalListReply(msg.client_id, report.intervals)]
        if isinstance(msg, ReadLogForwardCall):
            return [self._on_read(msg.client_id, msg.lsn, forward=True,
                                  max_records=msg.max_records,
                                  images=images)]
        if isinstance(msg, ReadLogBackwardCall):
            return [self._on_read(msg.client_id, msg.lsn, forward=False,
                                  max_records=msg.max_records,
                                  images=images)]
        if isinstance(msg, CopyLogCall):
            return self._guarded(msg, self._on_copy)
        if isinstance(msg, InstallCopiesCall):
            return self._guarded(msg, self._on_install)
        if isinstance(msg, GeneratorReadCall):
            return [GeneratorReadReply(msg.client_id,
                                       self.store.generator_value)]
        if isinstance(msg, GeneratorWriteCall):
            self.store.generator_write(msg.value)
            return [AckReply(msg.client_id, ok=True)]
        if isinstance(msg, PingMsg):
            self.pings_answered += 1
            return [PongMsg(msg.client_id, token=msg.token)]
        if isinstance(msg, TruncateLogCall):
            return self._guarded(msg, self._on_truncate)
        if isinstance(msg, FenceLogCall):
            return self._guarded(msg, self._on_fence)
        if isinstance(msg, StatsCall):
            return [self._on_stats(msg)]
        return [ErrorReply(msg.client_id,
                           f"unhandled message {type(msg).__name__}",
                           code=ERR_PROTOCOL)]

    def _guarded(self, msg: Message, handler) -> list[Message]:
        try:
            return handler(msg)
        except LogError as exc:
            return [ErrorReply(msg.client_id, str(exc),
                               code=_error_code(exc))]

    def _on_write(self, msg: WriteLogMsg,
                  images: list[bytes] | None = None) -> list[Message]:
        """Append a WriteLog's or a parked ForceLog's records, unsynced;
        returns the MissingInterval NAK and/or typed error to send."""
        client_id = msg.client_id
        out: list[Message] = []
        expected = self._expected.get(client_id)
        if expected is None:
            high = self.store.client_high_lsn(client_id)
            expected = high + 1 if high is not None else None
        if expected is not None and msg.low_lsn > expected:
            out.append(MissingIntervalMsg(client_id, lo=expected,
                                          hi=msg.low_lsn - 1))
            self.missing_intervals_sent += 1
        if images is not None and len(images) != len(msg.records):
            images = None  # defensive: only trust an aligned capture
        try:
            self.store.append_records(client_id, msg.records, fsync=False,
                                      images=images)
        except LogError as exc:
            out.append(ErrorReply(client_id, str(exc),
                                  code=_error_code(exc)))
            return out
        self._expected[client_id] = msg.high_lsn + 1
        return out

    def _on_read(self, client_id: str, lsn: LSN, *, forward: bool,
                 max_records: int = 0,
                 images: list[bytes] | None = None) -> Message:
        """The stored records around ``lsn``, as many as the call wants.

        Reads start at the requested LSN when it is stored, else at the
        nearest stored LSN in the scan direction, and the reply carries
        the highest-epoch copy of each.  An empty reply means the
        server stores nothing on that side.

        ``max_records`` is the caller's limit: a point read says 1 and
        pays for one record, a scan says "all you can" and the reply is
        filled to :data:`READ_REPLY_CAP_BYTES`.  ``0`` is a caller that
        predates the field: it gets one packet's worth
        (:data:`PACKET_REPLY_BYTES`), as it always did.  The first
        record goes whatever its size, so a reply is never larger than
        its cap plus one record.

        ``stored_lsns`` is the stream's maintained index, so a call
        costs one bisect plus a read of the records it sends —
        independent of how much log the daemon retains.  ``images``
        (the connection's scratch list, empty on a ReadLog call)
        receives the stored image of each record of the reply, in
        reply order.  A stored image that fails its CRC ends the reply
        before it; when it is the record the call starts at, the answer
        is a typed error, like a failed append.
        """
        lsns = self.store.stored_lsns(client_id)
        if images is None:
            images = []
        budget = READ_REPLY_CAP_BYTES if max_records else PACKET_REPLY_BYTES
        # no image is shorter than its header
        count = budget // RECORD_HEADER_BYTES + 1
        if max_records and max_records < count:
            count = max_records
        if forward:
            index = bisect_left(lsns, lsn)
            run = lsns[index:index + count]
        else:
            index = bisect_right(lsns, lsn)
            run = lsns[max(0, index - count):index]
            run.reverse()
        try:
            records = self.store.read_run(client_id, run, budget, images)
        except StorageError as exc:
            return ErrorReply(client_id, str(exc), code=ERR_STORAGE)
        if not forward:
            records.reverse()
            images.reverse()
        return ReadLogReply(client_id, tuple(records))

    def _on_copy(self, msg: CopyLogCall) -> list[Message]:
        for record in msg.records:
            self.store.stage_copy(msg.client_id, record)
        return [AckReply(msg.client_id, ok=True)]

    def _on_install(self, msg: InstallCopiesCall) -> list[Message]:
        self.store.install_copies(msg.client_id, msg.epoch)
        return [AckReply(msg.client_id, ok=True)]

    # -- Section 5.3: log space management -----------------------------

    def _on_truncate(self, msg: TruncateLogCall) -> list[Message]:
        """Reclaim everything below the client's low-water LSN.

        The paper's Section 5.3 lets a client tell its servers that log
        records below a truncation point "will never be read again";
        the store drops them from memory, compacts the on-disk log, and
        remembers the mark so a post-restart replay (or a late
        retransmission) cannot resurrect reclaimed records.
        """
        dropped = self.store.truncate_below(msg.client_id,
                                            msg.low_water_lsn)
        expected = self._expected.get(msg.client_id)
        if expected is not None and expected < msg.low_water_lsn:
            # Gap tracking must never NAK for reclaimed LSNs.
            self._expected[msg.client_id] = msg.low_water_lsn
        return [TruncateReply(msg.client_id,
                              low_water_lsn=msg.low_water_lsn,
                              records_dropped=dropped)]

    def _on_stats(self, msg: StatsCall) -> Message:
        store = self.store
        values = {
            "messages_handled": self.messages_handled,
            "missing_intervals_sent": self.missing_intervals_sent,
            "forces_acked": self.forces_acked,
            "pings_answered": self.pings_answered,
            "bytes_appended": store.bytes_appended,
            "log_bytes": store.log_size_bytes,
            "store_records": store.record_count(),
            "truncations": store.truncations,
            "truncated_lsn": store.truncated_lsn(msg.client_id),
            "storage_errors": store.storage_errors,
            "injected_faults": store.injected_faults,
            "recovery_replays": store.recovered_entries,
            "crc_rejections": store.crc_rejections,
            "fsyncs": store.fsyncs,
            "records_per_fsync": (
                store.records_appended // store.fsyncs
                if store.fsyncs else 0),
            "forces_coalesced": self.forces_coalesced,
            "send_iovecs": self.send_iovecs,
            "quota_rejections": self.quota_rejections,
            "tenant_streams": sum(len(s)
                                  for s in self._tenant_streams.values()),
            "fence_rejections": store.fence_rejections,
            "fence_epoch": store.fence_epoch(msg.client_id),
            "read_ahead_hits": self.read_ahead_hits,
            "read_ahead_wasted": self.read_ahead_wasted,
        }
        counters = tuple(values[name] for name in STATS_COUNTERS)
        return StatsReply(msg.client_id, counters)


def _error_code(exc: LogError) -> int:
    if isinstance(exc, StorageError):
        return ERR_STORAGE
    if isinstance(exc, ProtocolError):
        return ERR_PROTOCOL
    return ERR_GENERIC


async def run_server(
    data_dir: str,
    server_id: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce=print,
    ready: "asyncio.Event | None" = None,
    fault_plan: str | None = None,
    fault_trace: str | None = None,
    cluster_spec: str | None = None,
) -> None:
    """Run one daemon until cancelled (the ``repro serve`` entry point).

    Prints ``REPRO-SERVE <server_id> <host> <port>`` once listening so
    a parent process (:mod:`repro.rt.cluster`) can harvest the
    ephemeral port.

    ``cluster_spec`` names a ``placements.json`` file; the daemon reads
    its per-tenant quotas (the roster section is for clients — the
    daemon still binds ``host:port`` from its own arguments, since
    harness-spawned daemons use ephemeral ports the spec cannot know).

    ``fault_plan`` (comma-separated ``site:index:action`` specs) arms
    storage faults via :class:`~repro.rt.faultfs.FaultInjector`; an
    injected power loss exits the process with status 86 after printing
    ``REPRO-FAULT-CRASH <site>:<index>`` to stderr.  ``fault_trace``
    appends every I/O crash point hit to a file, which is how the
    sweep harness enumerates a daemon workload's points.
    """
    io = None
    if fault_plan is not None or fault_trace is not None:
        io = FaultInjector(parse_plan(fault_plan) if fault_plan else (),
                           mode="exit", trace_path=fault_trace)
    quotas = (load_cluster_spec(cluster_spec).quotas
              if cluster_spec is not None else None)
    store = FileLogStore(data_dir, server_id, io=io)
    daemon = LogServerDaemon(store, host, port, quotas=quotas)
    await daemon.start()
    announce(f"REPRO-SERVE {server_id} {daemon.host} {daemon.port}",
             flush=True)
    if ready is not None:
        ready.set()
    try:
        await daemon.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await daemon.close()
