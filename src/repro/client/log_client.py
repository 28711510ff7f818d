"""The client node's logging process (Sections 3.1.2 and 4.2).

:class:`SimLogClient` is the network-facing twin of
:class:`~repro.core.replicated_log.ReplicatedLog`: the same replication
algorithm, run over the Figure 4-1 protocol instead of direct calls.

Behaviours taken from the paper:

* **Grouping** — records are "buffered in virtual memory until a force
  occurs or the buffer fills"; a force sends the whole group in as few
  packets as possible, with only the last packet marked ForceLog (one
  acknowledgment per force).
* **The δ bound** — "the client must limit the number of records
  contained in unacknowledged WriteLog and ForceLog messages to ensure
  that no more than δ log records are partially written"; the client
  keeps every unacknowledged record in memory so it can resend.
* **Retry and switch** — a ForceLog without a response is retried "a
  number of times before moving to a different server"; on a switch the
  client sends NewInterval and resends everything not yet durable on
  ``N`` servers.
* **MissingInterval handling** — resend the missing records, or send
  NewInterval when they are already durable elsewhere.
* **Restart** — the client initialization procedure (interval lists
  from ``M − N + 1`` servers, fresh epoch, CopyLog of the last δ
  records plus δ not-present guards, InstallCopies), performed with
  synchronous RPCs.
"""

from __future__ import annotations

import random

from ..analysis.constants import DEFAULT_MIPS, CpuModel
from ..core.config import ReplicationConfig
from ..core.epoch import issued_by
from ..core.errors import (
    LSNNotWritten,
    NotEnoughServers,
    NotInitialized,
    RecordNotPresent,
    ServerUnavailable,
)
from ..core.intervals import MergedIntervalMap
from ..core.procedure import ACK, COPY, Call, Procedure, Step
from ..core.records import Epoch, LogRecord, LSN, StoredRecord
from ..core.recovery import fetch_record, restart
from ..core.retry import RetryPolicy
from ..net.messages import (
    CopyLogCall,
    ForceLogMsg,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    WriteLogMsg,
    call_message,
    reply_value,
)
from ..net.packet import PACKET_PAYLOAD_BYTES
from ..net.rpc import RpcClient, RpcReply
from ..net.transport import Connection, Endpoint
from ..sim.kernel import Simulator
from ..sim.resources import Resource
from ..sim.stats import MetricSet
from ..server.load import StickyAssignment

#: Wire overhead per record inside a write message.
_RECORD_OVERHEAD = 16
#: How long a force waits for acknowledgments before retrying.
DEFAULT_FORCE_TIMEOUT_S = 0.25


class SimLogClient:
    """The single logging process of one transaction-processing node."""

    def __init__(
        self,
        sim: Simulator,
        network,
        client_id: str,
        server_ids: list[str],
        config: ReplicationConfig,
        epoch_source,
        mips: float = DEFAULT_MIPS,
        metrics: MetricSet | None = None,
        assignment=None,
        force_timeout_s: float = DEFAULT_FORCE_TIMEOUT_S,
        rng: random.Random | None = None,
        cpu_model: CpuModel | None = None,
        retry_policy: RetryPolicy | None = None,
        migrate_after_s: float | None = None,
    ):
        if len(server_ids) != config.total_servers:
            raise NotEnoughServers(
                f"config names M={config.total_servers} servers, "
                f"got {len(server_ids)}"
            )
        self.sim = sim
        self.client_id = client_id
        self.server_ids = list(server_ids)
        self.config = config
        self.epoch_source = epoch_source
        self.endpoint = Endpoint(sim, network, client_id)
        self.cpu = Resource(sim, capacity=1, name=f"{client_id}.cpu")
        self.cpu_model = cpu_model if cpu_model is not None else CpuModel(mips)
        self.metrics = metrics if metrics is not None else MetricSet()
        self.assignment = assignment if assignment is not None else StickyAssignment()
        self.force_timeout_s = force_timeout_s
        # a string seed hashes identically across processes (unlike
        # hash(str), which is salted), so default-seeded clients retry
        # with the same jitter in every run.
        self.rng = rng if rng is not None else random.Random(f"{client_id}:log-client")
        #: backoff schedule between force retries and initialization
        #: attempts; jitter draws from ``self.rng`` happen only on
        #: failure paths, so failure-free runs stay bit-identical.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: write-set migration threshold (§5.4): a write-set server
        #: unresponsive for this long is replaced via NewInterval on a
        #: fresh server instead of being retried further.  ``None``
        #: disables the time-based trigger (retry counts still apply).
        self.migrate_after_s = migrate_after_s
        #: server -> sim time of the first unanswered attempt since the
        #: last success; cleared by any acknowledgment.
        self._suspect_since: dict[str, float] = {}

        # connections
        self._conns: dict[str, Connection] = {}
        self._rpcs: dict[str, RpcClient] = {}
        # volatile replication state
        self._merged: MergedIntervalMap | None = None
        self._epoch: Epoch = 0
        self._next_lsn: LSN = 1
        self._write_set: list[str] = []
        self._buffer: list[StoredRecord] = []
        self._unacked: dict[LSN, StoredRecord] = {}
        self._acked: dict[str, LSN] = {}
        self._ack_waiters: dict[str, list[tuple[LSN, object]]] = {}
        self._missing: dict[str, tuple[LSN, LSN]] = {}
        self._sent_high: dict[str, LSN] = {}
        self._server_loads: dict[str, float] = {}
        # statistics
        self.forces = 0
        self.server_switches = 0
        self.recoveries = 0
        # hot-path caches: the per-packet CPU charge is fixed, and the
        # per-send counter / per-force latency lookups otherwise cost a
        # qualified-name f-string plus a dict probe each time.
        self._packet_time = self.cpu_model.packet_time()
        self._msgs_out = self.metrics.counter(f"{client_id}.msgs_out")
        self._force_latency = self.metrics.latency(f"{client_id}.force")
        #: running byte size of ``_buffer`` (records + per-record wire
        #: overhead), maintained incrementally so ``log`` does not
        #: re-sum the buffer on every append.
        self._buffer_bytes = 0

    # -- connection plumbing -------------------------------------------------

    def _connect(self, server_id: str):
        """Ensure a live connection + RPC client to ``server_id``."""
        conn = self._conns.get(server_id)
        if conn is not None and conn.open:
            return conn
        conn = yield from self.endpoint.connect(server_id)
        self._conns[server_id] = conn
        self._rpcs[server_id] = RpcClient(self.sim, conn)
        self.sim.spawn(self._pump(server_id, conn),
                       name=f"{self.client_id}.pump.{server_id}")
        return conn

    def _pump(self, server_id: str, conn: Connection):
        """Dispatch inbound traffic from one server."""
        sim = self.sim
        cpu = self.cpu
        inbox_get = conn.inbox.get
        packet_time = self._packet_time
        while conn.open:
            message = yield inbox_get()
            # cpu.use() inlined — this loop runs once per inbound packet.
            yield cpu.acquire()
            try:
                yield sim.timeout(packet_time)
            finally:
                cpu.release()
                cpu.total_served += 1
            # acks dominate inbound traffic (one per force); RPC
            # replies only flow during initialization and recovery.
            if type(message) is NewHighLSNMsg:
                self._note_ack(server_id, message.new_high_lsn)
            elif isinstance(message, RpcReply):
                rpc = self._rpcs.get(server_id)
                if rpc is not None:
                    rpc.dispatch(message)
            elif isinstance(message, MissingIntervalMsg):
                self._missing[server_id] = (message.lo, message.hi)

    def _note_ack(self, server_id: str, high: LSN) -> None:
        prev = self._acked.get(server_id, 0)
        if high <= prev:
            return
        self._acked[server_id] = high
        if self._suspect_since:
            self._suspect_since.pop(server_id, None)
        waiters = self._ack_waiters.get(server_id, [])
        still = []
        for threshold, event in waiters:
            if high >= threshold and not event.triggered:
                event.succeed(high)
            elif not event.triggered:
                still.append((threshold, event))
        self._ack_waiters[server_id] = still
        self._gc_unacked()

    def durable_through(self) -> LSN:
        """Highest LSN acknowledged by *all* write-set servers."""
        ws = self._write_set
        if not ws:
            return 0
        # plain loop: called once per log/force/ack, and a genexpr-min
        # over a two-element write set costs ~3x as much.
        get = self._acked.get
        low = get(ws[0], 0)
        for i in range(1, len(ws)):
            v = get(ws[i], 0)
            if v < low:
                low = v
        return low

    def _gc_unacked(self) -> None:
        unacked = self._unacked
        if not unacked:
            return
        durable = self.durable_through()
        # records are buffered in LSN order, so the dict's first key is
        # its minimum: nothing to collect unless it is durable now.
        if next(iter(unacked)) > durable:
            return
        for lsn in [l for l in unacked if l <= durable]:
            del unacked[lsn]

    # -- client initialization (restart procedure) ------------------------------

    def _drive(self, procedure: Procedure):
        """Run a core procedure over this node's RPCs; ``yield from`` me."""
        value = failure = None
        while True:
            try:
                request = (procedure.send(value) if failure is None
                           else procedure.throw(failure))
            except StopIteration as stop:
                return stop.value
            value = failure = None
            if type(request) is Step:
                continue
            try:
                value = yield from self._perform(request)
            except ServerUnavailable as exc:
                failure = exc

    def _perform(self, call: Call):
        """One procedure call as RPCs to ``call.server_id``.

        CopyLog is split into packet-sized calls here ("as many log
        records as will fit in a network packet in each call"); the
        procedure sees one answer, the first that is not an ack.
        """
        yield from self._connect(call.server_id)
        rpc = self._rpcs[call.server_id]
        if call.op == COPY:
            epoch, records = call.args
            messages = [CopyLogCall(self.client_id, epoch, chunk)
                        for chunk in _pack_records(records)]
        else:
            messages = [call_message(self.client_id, call)]
        for message in messages:
            value = reply_value((yield from rpc.call(message)))
            if value is not ACK:
                break
        return value

    def initialize(self):
        """Run the restart procedure over the network; ``yield from`` me."""
        source = self.epoch_source

        def install_order():
            # Asked of the assignment strategy only when recovery
            # reaches the install step: a random strategy draws from
            # its rng, and a restart that fails earlier must not.
            yield from self.assignment.choose(
                self.server_ids, len(self.server_ids), self._server_loads)

        result = yield from self._drive(restart(
            self.config,
            # over the network when the generator's representatives
            # live on log-server nodes (Appendix I)
            source.procedure() if hasattr(source, "procedure")
            else issued_by(source),
            gather_order=self.server_ids,
            install_order=install_order(),
        ))
        self._merged = result.merged
        self._epoch = result.epoch
        self._next_lsn = result.next_lsn
        self._write_set = list(result.write_set)
        guard_high = result.next_lsn - 1
        for server_id in result.write_set:
            self._acked[server_id] = guard_high
            self._sent_high[server_id] = guard_high
        self._buffer.clear()
        self._buffer_bytes = 0
        self._unacked.clear()
        self.recoveries += 1

    # -- logging -------------------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self._merged is not None

    def log(self, data: bytes, kind: str = "data"):
        """Buffer one record; returns its LSN.  ``yield from`` me.

        Sends nothing unless the buffer has outgrown a packet, in which
        case the full packets are streamed as asynchronous WriteLog
        messages.  Blocks (forces) if the δ bound would be exceeded.
        """
        if self._merged is None:
            raise NotInitialized("client log not initialized")
        while self._next_lsn - self.durable_through() > self.config.delta:
            yield from self.force()
        lsn = self._next_lsn
        self._next_lsn += 1
        record = StoredRecord(lsn=lsn, epoch=self._epoch, present=True,
                              data=data, kind=kind)
        self._buffer.append(record)
        self._buffer_bytes += len(data) + _RECORD_OVERHEAD
        self._unacked[lsn] = record
        if self._buffer_bytes > PACKET_PAYLOAD_BYTES:
            yield from self._stream_buffer()
        return lsn

    def _stream_buffer(self):
        """Send all full packets in the buffer as WriteLog messages."""
        chunks = _pack_records(self._buffer)
        # keep the last (possibly partial) chunk buffered
        to_send, self._buffer = chunks[:-1], list(chunks[-1])
        self._buffer_bytes = _records_size(self._buffer)
        for chunk in to_send:
            for server_id in list(self._write_set):
                yield from self._send_write(server_id, chunk, forced=False)

    def force(self):
        """Flush the buffer and wait until N servers acknowledge.

        This is the latency the transaction layer sees at commit; it is
        recorded in the ``<client>.force`` latency metric.
        """
        if self._merged is None:
            raise NotInitialized("client log not initialized")
        start = self.sim.now
        high = self._next_lsn - 1
        self._buffer.clear()  # records remain in _unacked for resends
        self._buffer_bytes = 0
        if high == 0:
            return
        pending = [s for s in self._write_set
                   if self._acked.get(s, 0) < high]
        if not pending and not self._buffer:
            return
        done = []
        acked_get = self._acked.get
        sim = self.sim
        for server_id in list(self._write_set):
            if acked_get(server_id, 0) >= high:
                done.append(server_id)
                continue
            # _force_one (and its _await_ack) inlined; the methods stay
            # for the server-switch path.  The two delegation frames
            # otherwise tax every yield of every force.
            ok = False
            for _attempt in range(self.config.write_retries + 1):
                low = max(acked_get(server_id, 0),
                          self._sent_high.get(server_id, 0)) + 1
                # On a retry, resend everything unacknowledged.
                if _attempt > 0:
                    low = acked_get(server_id, 0) + 1
                records = [self._unacked[lsn]
                           for lsn in range(low, high + 1)
                           if lsn in self._unacked]
                try:
                    if records:
                        chunks = _pack_records(records)
                        last_i = len(chunks) - 1
                        for i, chunk in enumerate(chunks):
                            yield from self._send_write(server_id, chunk,
                                                        forced=i == last_i)
                    else:
                        # nothing new to send; solicit an ack by
                        # resending the highest record as a ForceLog.
                        probe = self._unacked.get(high)
                        if probe is None:
                            ok = acked_get(server_id, 0) >= high
                            break
                        yield from self._send_write(server_id, (probe,),
                                                    forced=True)
                except ServerUnavailable:
                    self._suspect_since.setdefault(server_id, sim.now)
                    break
                if acked_get(server_id, 0) >= high:
                    ok = True
                else:
                    event = sim.event("ack-wait")
                    entry = (high, event)
                    waiters = self._ack_waiters.setdefault(server_id, [])
                    waiters.append(entry)
                    yield sim.any_of(
                        [event, sim.timeout(self.force_timeout_s)])
                    if event.triggered:
                        # the ack won the race: _note_ack saw the
                        # watermark reach `high`.
                        ok = True
                    else:
                        # the timeout won.  Withdraw the waiter, then
                        # yield once more so an ack already delivered
                        # at this same instant (queued behind the
                        # timeout) is counted before deciding on a
                        # full resend.
                        try:
                            waiters.remove(entry)
                        except ValueError:
                            pass
                        yield sim.timeout(0)
                        ok = acked_get(server_id, 0) >= high
                if ok:
                    self._suspect_since.pop(server_id, None)
                    self._server_loads[server_id] = sim.now  # freshness
                    break
                self._suspect_since.setdefault(server_id, sim.now)
                # handle a MissingInterval the server may have raised
                missing = self._missing.pop(server_id, None)
                if missing is not None:
                    yield from self._handle_missing(server_id, missing)
                if self._past_migration_threshold(server_id):
                    break  # stop retrying a server held down too long
                if _attempt < self.config.write_retries:
                    yield sim.timeout(
                        self.retry_policy.delay(_attempt, self.rng))
            if ok:
                done.append(server_id)
            else:
                replacement = yield from self._switch_server(server_id, high)
                if replacement is not None:
                    done.append(replacement)
        if len(done) < self.config.copies:
            self._merged = None
            raise NotEnoughServers(
                f"force reached only {len(done)} of {self.config.copies} servers"
            )
        self.forces += 1
        self._gc_unacked()
        self._force_latency.observe(self.sim.now - start)

    def _force_one(self, server_id: str, high: LSN) -> bool:
        """Drive one server to acknowledge through ``high``."""
        for _attempt in range(self.config.write_retries + 1):
            low = max(self._acked.get(server_id, 0),
                      self._sent_high.get(server_id, 0)) + 1
            # On a retry, resend everything unacknowledged.
            if _attempt > 0:
                low = self._acked.get(server_id, 0) + 1
            records = [self._unacked[lsn]
                       for lsn in range(low, high + 1) if lsn in self._unacked]
            try:
                if records:
                    chunks = _pack_records(records)
                    last_i = len(chunks) - 1
                    for i, chunk in enumerate(chunks):
                        yield from self._send_write(server_id, chunk,
                                                    forced=i == last_i)
                else:
                    # nothing new to send; solicit an ack by resending
                    # the highest record as a ForceLog (idempotent).
                    probe = self._unacked.get(high)
                    if probe is None:
                        return self._acked.get(server_id, 0) >= high
                    yield from self._send_write(server_id, (probe,), forced=True)
            except ServerUnavailable:
                return False
            ok = yield from self._await_ack(server_id, high)
            if ok:
                self._suspect_since.pop(server_id, None)
                self._server_loads[server_id] = self.sim.now  # freshness signal
                return True
            self._suspect_since.setdefault(server_id, self.sim.now)
            # handle a MissingInterval the server may have raised
            missing = self._missing.pop(server_id, None)
            if missing is not None:
                yield from self._handle_missing(server_id, missing)
            if self._past_migration_threshold(server_id):
                return False
            if _attempt < self.config.write_retries:
                yield self.sim.timeout(
                    self.retry_policy.delay(_attempt, self.rng))
        return False

    def _await_ack(self, server_id: str, high: LSN) -> bool:
        if self._acked.get(server_id, 0) >= high:
            return True
        event = self.sim.event("ack-wait")
        entry = (high, event)
        waiters = self._ack_waiters.setdefault(server_id, [])
        waiters.append(entry)
        yield self.sim.any_of([event, self.sim.timeout(self.force_timeout_s)])
        if event.triggered:
            return True
        # timeout expired first: withdraw the waiter and give an ack
        # delivered at this exact instant one more scheduling step
        # before concluding the force must be resent.
        try:
            waiters.remove(entry)
        except ValueError:
            pass
        yield self.sim.timeout(0)
        return self._acked.get(server_id, 0) >= high

    def _past_migration_threshold(self, server_id: str) -> bool:
        if self.migrate_after_s is None:
            return False
        since = self._suspect_since.get(server_id)
        return since is not None and \
            self.sim.now - since >= self.migrate_after_s

    def _handle_missing(self, server_id: str, missing: tuple[LSN, LSN]):
        """Resend a missing interval, or NewInterval if it is gone.

        "When a client receives a MissingInterval message it will
        either resend the missing log records in a ForceLog message, or
        use the NewInterval message to inform the server that it should
        ignore the missing log records and start a new interval."
        """
        lo, hi = missing
        if all(lsn in self._unacked for lsn in range(lo, hi + 1)):
            records = [self._unacked[lsn] for lsn in range(lo, hi + 1)]
            chunks = _pack_records(records)
            for i, chunk in enumerate(chunks):
                forced = i == len(chunks) - 1
                yield from self._send_write(server_id, chunk, forced=forced)
        else:
            conn = yield from self._connect(server_id)
            yield from self.cpu.use(self.cpu_model.packet_time())
            yield from conn.send(NewIntervalMsg(
                client_id=self.client_id, epoch=self._epoch,
                starting_lsn=hi + 1,
            ))
            self._sent_high[server_id] = hi

    def _switch_server(self, failed: str, high: LSN) -> str | None:
        """Replace a failed write-set member; bring the new one current.

        The replacement receives NewInterval followed by every record
        not yet durable on N servers (all within δ, hence in memory).
        """
        others = [s for s in self.server_ids
                  if s not in self._write_set and s != failed]
        ordered = self.assignment.choose(others, len(others), self._server_loads)
        for candidate in ordered:
            try:
                conn = yield from self._connect(candidate)
            except ServerUnavailable:
                continue
            start_lsn = self.durable_through() + 1
            yield from self.cpu.use(self.cpu_model.packet_time())
            yield from conn.send(NewIntervalMsg(
                client_id=self.client_id, epoch=self._epoch,
                starting_lsn=start_lsn,
            ))
            self._sent_high[candidate] = start_lsn - 1
            self._acked[candidate] = 0
            # swap into the write set before forcing so acks count
            self._write_set = [candidate if s == failed else s
                               for s in self._write_set]
            ok = yield from self._force_one(candidate, high)
            if ok:
                self.server_switches += 1
                if self._merged is not None:
                    for lsn in range(start_lsn, high + 1):
                        self._merged.note(lsn, self._epoch, candidate)
                return candidate
            self._write_set = [failed if s == candidate else s
                               for s in self._write_set]
        return None

    def _send_write(self, server_id: str, chunk: tuple[StoredRecord, ...],
                    forced: bool):
        # cached-connection fast path: skip the _connect generator
        # (one allocation + StopIteration per send) when already live.
        conn = self._conns.get(server_id)
        if conn is None or not conn.open:
            conn = yield from self._connect(server_id)
        cls = ForceLogMsg if forced else WriteLogMsg
        message = cls(client_id=self.client_id, epoch=chunk[0].epoch,
                      records=chunk)
        # cpu.use() inlined — one generator per send instead of two.
        cpu = self.cpu
        yield cpu.acquire()
        try:
            yield self.sim.timeout(self._packet_time)
        finally:
            cpu.release()
            cpu.total_served += 1
        c = self._msgs_out
        c.count += 1
        c.total += 1.0
        yield from conn.send(message)
        self._sent_high[server_id] = max(
            self._sent_high.get(server_id, 0), chunk[-1].lsn
        )
        if self._merged is not None:
            for record in chunk:
                self._merged.note(record.lsn, record.epoch, server_id)

    def rotate_write_set(self):
        """Deliberately move to a (possibly) different set of N servers.

        Used by the load-assignment experiments: frequent switching is
        exactly what Section 5.4 warns about ("clients might change
        servers too frequently resulting in very long interval lists").
        Everything pending is forced first, so the records the old
        servers hold are durable; the new servers are told to start a
        new interval at the next LSN.
        """
        yield from self.force()
        durable = self.durable_through()
        pool = list(self.server_ids)
        new_set = self.assignment.choose(pool, self.config.copies,
                                         self._server_loads)
        for server_id in new_set:
            if server_id in self._write_set:
                continue
            conn = yield from self._connect(server_id)
            yield from self.cpu.use(self.cpu_model.packet_time())
            yield from conn.send(NewIntervalMsg(
                client_id=self.client_id, epoch=self._epoch,
                starting_lsn=durable + 1,
            ))
            self._sent_high[server_id] = durable
            self._acked[server_id] = durable
        if len(new_set) == self.config.copies:
            self._write_set = list(new_set)
            self.server_switches += 1

    # -- reads ------------------------------------------------------------------------

    def read(self, lsn: LSN):
        """ReadLog; ``yield from`` me; returns LogRecord.

        Records still buffered on the client (not yet acknowledged by
        N servers) are served from memory — a transaction aborting
        before its records were forced reads them locally, which is the
        behaviour Section 5.2 generalizes into undo caching.  Everything
        else goes to a single server chosen from the merged map.
        """
        if self._merged is None:
            raise NotInitialized("client log not initialized")
        local = self._unacked.get(lsn)
        if local is not None and local.present:
            return LogRecord(lsn=local.lsn, data=local.data, kind=local.kind)
        entry = self._merged.entry(lsn)
        if entry is None:
            raise LSNNotWritten(lsn)
        stored = yield from self._drive(fetch_record(entry))
        if not stored.present:
            raise RecordNotPresent(lsn)
        return stored.to_log_record()

    def end_of_log(self) -> LSN:
        if self._merged is None:
            raise NotInitialized("client log not initialized")
        return max(self._merged.high_lsn() or 0, self._next_lsn - 1)

    # -- crash lifecycle ------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state (buffer, caches, connections)."""
        self.endpoint.crash()
        self._conns.clear()
        self._rpcs.clear()
        self._merged = None
        self._epoch = 0
        self._next_lsn = 1
        self._buffer.clear()
        self._unacked.clear()
        self._acked.clear()
        self._ack_waiters.clear()
        self._missing.clear()
        self._sent_high.clear()

    def restart(self):
        """Bring the node back and run client initialization."""
        self.endpoint.restart()
        yield from self.initialize()

    def initialize_with_retry(self, deadline_s: float | None = None,
                              policy: RetryPolicy | None = None):
        """Client initialization retried through transient churn.

        Under crash/repair churn the init quorum (``M − N + 1`` interval
        lists, plus the generator's quorums) can be briefly unreachable;
        this retries :meth:`initialize` with capped exponential backoff
        and seeded jitter until it succeeds, the policy's attempts run
        out, or more than ``deadline_s`` simulated seconds would pass.
        ``yield from`` me.
        """
        policy = policy if policy is not None else self.retry_policy
        start = self.sim.now
        attempt = 0
        while True:
            try:
                yield from self.initialize()
                return
            except (NotEnoughServers, ServerUnavailable):
                if attempt >= policy.max_attempts - 1:
                    raise
                delay = policy.delay(attempt, self.rng)
                if (deadline_s is not None
                        and self.sim.now + delay - start > deadline_s):
                    raise
                attempt += 1
                yield self.sim.timeout(delay)

    def restart_with_retry(self, deadline_s: float | None = None,
                           policy: RetryPolicy | None = None):
        """:meth:`restart`, but riding out transient quorum loss."""
        self.endpoint.restart()
        yield from self.initialize_with_retry(deadline_s, policy)

    @property
    def write_set(self) -> tuple[str, ...]:
        return tuple(self._write_set)

    @property
    def current_epoch(self) -> Epoch:
        return self._epoch


def _records_size(records: list[StoredRecord]) -> int:
    return sum(_RECORD_OVERHEAD + len(r.data) for r in records)


def _pack_records(
    records: list[StoredRecord],
) -> list[tuple[StoredRecord, ...]]:
    """Split consecutive records into packet-sized chunks.

    "Client processes and log servers attempt to pack as many log
    records as will fit in a network packet in each call."  A single
    record larger than a packet gets a chunk of its own (the transport
    would fragment it; the model keeps it as one oversized packet).
    """
    chunks: list[tuple[StoredRecord, ...]] = []
    current: list[StoredRecord] = []
    size = 0
    for record in records:
        record_size = _RECORD_OVERHEAD + len(record.data)
        if current and size + record_size > PACKET_PAYLOAD_BYTES:
            chunks.append(tuple(current))
            current, size = [], 0
        current.append(record)
        size += record_size
    if current:
        chunks.append(tuple(current))
    return chunks
