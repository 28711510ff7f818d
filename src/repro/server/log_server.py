"""The simulated log-server node (Section 4).

A :class:`SimLogServer` ties together every substrate the paper's
design calls for:

* a network endpoint speaking the Figure 4-1 protocol;
* a CPU charged per packet, per message, and per track write with the
  instruction budgets of Section 4.1;
* a low-latency non-volatile buffer into which incoming records are
  copied before they are acknowledged (a force completes at NVRAM
  speed, not disk speed);
* one disk receiving the merged, interleaved log stream a track at a
  time, with periodic interval-list checkpoints; and
* per-client gap detection producing MissingInterval messages, and
  NVRAM back-pressure producing load shedding.

Crash/restart follows the paper's durability story: NVRAM contents and
sealed tracks survive a crash; the semantic state is rebuilt by
scanning the stream (:meth:`restart`).
"""

from __future__ import annotations

from ..analysis.constants import DEFAULT_MIPS, CpuModel
from ..core.epoch import GeneratorStateRepresentative
from ..core.errors import ProtocolError, ServerUnavailable
from ..core.records import StoredRecord
from ..core.store import LogServerStore
from ..net.messages import (
    AckReply,
    CopyLogCall,
    ErrorReply,
    ForceLogMsg,
    GeneratorReadCall,
    GeneratorReadReply,
    GeneratorWriteCall,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    WriteLogMsg,
)
from ..net.packet import PACKET_PAYLOAD_BYTES
from ..net.rpc import RpcReply, RpcRequest
from ..net.transport import Connection, Endpoint
from ..sim.kernel import Simulator
from ..sim.resources import Resource
from ..sim.stats import Counter, MetricSet
from ..storage.disk import SLOW_1987_DISK, DiskParams, SimDisk
from ..storage.log_stream import DiskLogStream, StreamEntry
from ..storage.nvram import NvramBuffer, NvramFullError
from .client_state import ClientProtocolState
from .index import ServerLogIndex
from .load import NvramBackpressure

#: how often the flusher looks at NVRAM for a full track
FLUSH_CHECK_INTERVAL_S = 0.010
#: how long appends must pause before a partial track is flushed
IDLE_FLUSH_AFTER_S = 0.200
#: tracks flushed between two interval-list checkpoints of the stream
CHECKPOINT_EVERY_TRACKS = 64


class SimLogServer:
    """A log-server node inside the discrete-event simulation."""

    def __init__(
        self,
        sim: Simulator,
        network,
        server_id: str,
        disk_params: DiskParams = SLOW_1987_DISK,
        nvram_capacity: int = 256 * 1024,
        mips: float = DEFAULT_MIPS,
        metrics: MetricSet | None = None,
        cpu_model: CpuModel | None = None,
        nvram_enabled: bool = True,
    ):
        self.sim = sim
        self.server_id = server_id
        self.endpoint = Endpoint(sim, network, server_id)
        self.store = LogServerStore(server_id)
        self.disk = SimDisk(sim, disk_params, name=f"{server_id}.disk")
        self.stream = DiskLogStream(track_bytes=self.disk.params.track_bytes,
                                    name=f"{server_id}.stream")
        self.index = ServerLogIndex()
        self.stream.on_seal = self.index.on_seal
        self.nvram = NvramBuffer(sim, nvram_capacity)
        self.cpu = Resource(sim, capacity=1, name=f"{server_id}.cpu")
        self.cpu_model = cpu_model if cpu_model is not None else CpuModel(mips)
        #: with NVRAM disabled, every force waits for a disk write
        #: before it is acknowledged — the configuration Section 4.1's
        #: footnote rules out, kept for the ablation experiment.
        self.nvram_enabled = nvram_enabled
        self.metrics = metrics if metrics is not None else MetricSet()
        self.shed_policy = NvramBackpressure(self.nvram)
        #: the node's generator-state representative (Appendix I):
        #: "representatives … will normally be implemented on log
        #: server nodes".  The integer lives in NVRAM, so it survives
        #: crashes like the rest of the durable state.
        self.generator_rep = GeneratorStateRepresentative(
            f"{server_id}.genrep")
        self._proto: dict[str, ClientProtocolState] = {}
        self._counters: dict[str, Counter] = {}
        #: per-operation CPU charges are fixed for the node's lifetime;
        #: resolving them through the CpuModel per packet is measurable
        #: at target load.
        self._packet_time = self.cpu_model.packet_time()
        self._message_time = self.cpu_model.message_time()
        self._track_write_time = self.cpu_model.track_write_time()
        # hot-path counters resolved once (the cold ones go via _count)
        counter = self.metrics.counter
        self._c_packets_in = counter(f"{server_id}.packets_in")
        self._c_packets_out = counter(f"{server_id}.packets_out")
        self._c_force_msgs = counter(f"{server_id}.force_msgs")
        self._c_write_msgs = counter(f"{server_id}.write_msgs")
        self._c_records_stored = counter(f"{server_id}.records_stored")
        self._c_bytes_stored = counter(f"{server_id}.bytes_stored")
        self._c_ack_msgs = counter(f"{server_id}.ack_msgs")
        self._c_rpcs = counter(f"{server_id}.rpcs")
        self._last_append_time = 0.0
        self._tracks_since_checkpoint = 0
        self.crashed = False
        self.messages_shed = 0
        sim.spawn(self._accept_loop(), name=f"{server_id}.accept")
        sim.spawn(self._flusher(), name=f"{server_id}.flusher")

    # -- helpers ------------------------------------------------------------

    def _proto_state(self, client_id: str) -> ClientProtocolState:
        state = self._proto.get(client_id)
        if state is None:
            state = ClientProtocolState(client_id)
            self._proto[client_id] = state
        return state

    def _count(self, name: str, amount: float = 1.0) -> None:
        # Counter objects are cached per name: building the qualified
        # name and re-resolving it through the MetricSet dict for every
        # stored record is measurable at target load.
        counter = self._counters.get(name)
        if counter is None:
            counter = self.metrics.counter(f"{self.server_id}.{name}")
            self._counters[name] = counter
        counter.add(amount)

    # -- processes -----------------------------------------------------------

    def _accept_loop(self):
        while True:
            conn = yield from self.endpoint.accept()
            self.sim.spawn(self._serve(conn), name=f"{self.server_id}.serve")

    def _serve(self, conn: Connection):
        sim = self.sim
        cpu = self.cpu
        inbox_get = conn.inbox.get
        packet_time = self._packet_time
        message_time = self._message_time
        # Recovery rebinds self.store/self._proto, but a crash closes
        # every connection first, ending this loop — so per-connection
        # bindings can never go stale while still in use.
        proto_map = self._proto
        nvram = self.nvram
        store_write = self.store.server_write_record
        stream_append = self.stream.append
        c_in = self._c_packets_in
        c_force = self._c_force_msgs
        c_write = self._c_write_msgs
        c_records = self._c_records_stored
        c_bytes = self._c_bytes_stored
        while conn.open:
            message = yield inbox_get()
            if self.crashed:
                continue
            c_in.count += 1
            c_in.total += 1.0
            # _charge_packet inlined: no per-packet charge generator.
            yield cpu.acquire()
            try:
                yield sim.timeout(packet_time)
            finally:
                cpu.release()
                cpu.total_served += 1
            # Write messages dominate the mix at target load, so they
            # are dispatched first, and _handle_write is inlined into
            # this loop: its own frame would otherwise be traversed on
            # every kernel resumption of every per-message yield.
            if isinstance(message, (ForceLogMsg, WriteLogMsg)):
                forced = type(message) is ForceLogMsg
                c = c_force if forced else c_write
                c.count += 1
                c.total += 1.0
                cid = message.client_id
                records = message.records
                incoming = 24 * len(records)
                for r in records:
                    incoming += len(r.data)
                if self.shed_policy.should_shed(incoming):
                    self.messages_shed += 1
                    self._count("msgs_shed")
                    continue
                yield cpu.acquire()
                try:
                    yield sim.timeout(message_time)
                finally:
                    cpu.release()
                    cpu.total_served += 1
                proto = proto_map.get(cid)
                if proto is None:
                    proto = self._proto_state(cid)
                verdict = proto.classify_batch(
                    records[0].lsn, records[-1].lsn, message.epoch
                )
                if verdict == "duplicate":
                    if forced:
                        yield from self._ack(conn, cid, proto.acked_high)
                    continue
                if verdict == "gap":
                    yield from self._send(
                        conn,
                        MissingIntervalMsg(
                            client_id=cid,
                            lo=proto.expected_lsn, hi=records[0].lsn - 1,
                        ),
                    )
                    self._count("missing_interval_msgs")
                    continue
                if verdict == "overlap":
                    records = tuple(
                        r for r in records if r.lsn >= proto.expected_lsn
                    )
                try:
                    # _store_record inlined (the method remains for the
                    # CopyLog path): one call per stored record.
                    for record in records:
                        entry = StreamEntry("write", cid, record)
                        try:
                            nvram.append(entry.byte_size)
                        except NvramFullError:
                            self._count("nvram_overflow")
                            raise ProtocolError("nvram full") from None
                        store_write(cid, record)
                        stream_append(entry)
                        self._last_append_time = sim.now
                        c_records.count += 1
                        c_records.total += 1.0
                        c_bytes.count += 1
                        c_bytes.total += len(record.data)
                except ProtocolError:
                    # A stale retransmission from an older epoch.
                    self._count("stale_msgs")
                    continue
                if records:
                    proto.note_stored(records[-1].lsn, message.epoch)
                if forced:
                    if not self.nvram_enabled and self.nvram.level > 0:
                        # No non-volatile buffer: the force is durable
                        # only once the pending data reaches the disk.
                        yield from self._flush(self.nvram.level)
                    # _ack/_send inlined likewise.
                    self._c_ack_msgs.add()
                    yield cpu.acquire()
                    try:
                        yield sim.timeout(packet_time)
                    finally:
                        cpu.release()
                        cpu.total_served += 1
                    self._c_packets_out.add()
                    yield from conn.send(
                        NewHighLSNMsg(client_id=cid,
                                      new_high_lsn=proto.acked_high)
                    )
            elif isinstance(message, RpcRequest):
                yield from self._handle_rpc(conn, message)
            elif isinstance(message, NewIntervalMsg):
                self._handle_new_interval(message)

    def _flusher(self):
        """Drain NVRAM to disk a track at a time (Section 4.1)."""
        track = self.disk.params.track_bytes
        while True:
            yield self.sim.timeout(FLUSH_CHECK_INTERVAL_S)
            if self.crashed:
                continue
            while self.nvram.track_ready(track):
                yield from self._flush(track)
            idle_for = self.sim.now - self._last_append_time
            if self.nvram.level > 0 and idle_for >= IDLE_FLUSH_AFTER_S:
                yield from self._flush(self.nvram.level)

    def _flush(self, nbytes: int):
        yield from self.cpu.use(self._track_write_time)
        yield from self.disk.write_track(nbytes)
        self.nvram.drain(nbytes)
        self.stream.seal_track()
        self._count("tracks_flushed")
        self._tracks_since_checkpoint += 1
        if self._tracks_since_checkpoint >= CHECKPOINT_EVERY_TRACKS:
            self.stream.checkpoint(self.store)
            self._tracks_since_checkpoint = 0

    # -- asynchronous writes ----------------------------------------------------

    def _store_record(
        self, client_id: str, record: StoredRecord, kind_entry: str
    ) -> None:
        """Apply one record to the semantic store, stream, and NVRAM."""
        entry = StreamEntry(kind_entry, client_id, record)
        try:
            self.nvram.append(entry.byte_size)
        except NvramFullError:
            self._count("nvram_overflow")
            raise ProtocolError("nvram full") from None
        if kind_entry == "write":
            self.store.server_write_record(client_id, record)
        else:
            self.store.copy_log(
                client_id, record.lsn, record.epoch,
                record.present, record.data, record.kind,
            )
        self.stream.append(entry)
        self._last_append_time = self.sim.now
        # Counter.add inlined for the two per-record counters.
        c = self._c_records_stored
        c.count += 1
        c.total += 1.0
        c = self._c_bytes_stored
        c.count += 1
        c.total += len(record.data)

    def _ack(self, conn: Connection, client_id: str, high: int):
        self._c_ack_msgs.add()
        yield from self._send(
            conn, NewHighLSNMsg(client_id=client_id, new_high_lsn=high)
        )

    def _send(self, conn: Connection, message):
        # _charge_packet inlined (acks ride this path once per force).
        cpu = self.cpu
        yield cpu.acquire()
        try:
            yield self.sim.timeout(self._packet_time)
        finally:
            cpu.release()
            cpu.total_served += 1
        self._c_packets_out.add()
        yield from conn.send(message)

    def _handle_new_interval(self, msg: NewIntervalMsg) -> None:
        self._proto_state(msg.client_id).start_new_interval(
            msg.starting_lsn, msg.epoch
        )
        self._count("new_interval_msgs")

    # -- synchronous calls ---------------------------------------------------------

    def _handle_rpc(self, conn: Connection, request: RpcRequest):
        body = request.body
        self._c_rpcs.add()
        if isinstance(body, IntervalListCall):
            reply = self._do_interval_list(body)
        elif isinstance(body, ReadLogForwardCall):
            reply = yield from self._do_read(body, forward=True)
        elif isinstance(body, ReadLogBackwardCall):
            reply = yield from self._do_read(body, forward=False)
        elif isinstance(body, CopyLogCall):
            reply = self._do_copy(body)
        elif isinstance(body, InstallCopiesCall):
            reply = self._do_install(body)
        elif isinstance(body, GeneratorReadCall):
            # the representative can be down independently of the node
            # (failure injection drives it directly); answer with an
            # error instead of letting the exception kill this
            # connection's handler.
            try:
                value = self.generator_rep.read()
            except ServerUnavailable:
                reply = ErrorReply(client_id=body.client_id,
                                   reason="generator representative down")
            else:
                reply = GeneratorReadReply(client_id=body.client_id,
                                           value=value)
        elif isinstance(body, GeneratorWriteCall):
            try:
                self.generator_rep.write(body.value)
            except ServerUnavailable:
                reply = ErrorReply(client_id=body.client_id,
                                   reason="generator representative down")
            else:
                reply = AckReply(client_id=body.client_id)
        else:
            reply = ErrorReply(client_id=body.client_id,
                               reason=f"unknown call {type(body).__name__}")
        yield from self._send(conn, RpcReply(request.rpc_id, reply))

    def _do_interval_list(self, call: IntervalListCall) -> IntervalListReply:
        report = self.store.interval_list(call.client_id)
        return IntervalListReply(client_id=call.client_id,
                                 intervals=tuple(report.intervals))

    def _do_read(self, call, forward: bool):
        """ReadLogForward/Backward: fill a packet with consecutive records.

        Always a packet's worth, as in the paper: the call's
        ``max_records`` is the TCP runtime's and is not consulted here.

        The append-forest index (Section 4.3) maps each requested LSN
        to its sealed track; the call charges one random disk read per
        *distinct* track touched.  Records still in NVRAM (the unsealed
        track) are served without disk work.
        """
        state = self.store.client_state(call.client_id)
        records: list[StoredRecord] = []
        tracks: set[int] = set()
        nvram_hits = 0
        size = 0
        lsn = call.lsn
        step = 1 if forward else -1
        while True:
            record = state.lookup(lsn)
            if record is None:
                break
            record_size = 16 + len(record.data)
            if records and size + record_size > PACKET_PAYLOAD_BYTES:
                break
            records.append(record)
            size += record_size
            address = self.index.locate(call.client_id, lsn)
            if address is not None:
                tracks.add(address)
            else:
                nvram_hits += 1
            lsn += step
        for _address in sorted(tracks):
            yield from self.disk.random_read(self.disk.params.track_bytes)
        if records:
            self._count("read_calls_served")
            self._count("read_tracks_touched", len(tracks))
            self._count("read_nvram_hits", nvram_hits)
        if not forward:
            records.reverse()
        return ReadLogReply(client_id=call.client_id, records=tuple(records))

    def _do_copy(self, call: CopyLogCall):
        try:
            for record in call.records:
                self._store_record(call.client_id, record, kind_entry="copy")
        except ProtocolError as exc:
            return ErrorReply(client_id=call.client_id, reason=str(exc))
        self._count("copy_calls")
        return AckReply(client_id=call.client_id)

    def _do_install(self, call: InstallCopiesCall):
        try:
            self.nvram.append(24)
            self.store.install_copies(call.client_id, call.epoch)
            self.stream.append(
                StreamEntry("install", call.client_id, None, call.epoch)
            )
        except (ProtocolError, NvramFullError) as exc:
            return ErrorReply(client_id=call.client_id, reason=str(exc))
        # After installation the client's contiguous position restarts
        # at the installed high-water mark.
        state = self.store.client_state(call.client_id)
        proto = self._proto_state(call.client_id)
        high = state.high_lsn
        if high is not None:
            proto.note_stored(high, call.epoch)
        self._count("install_calls")
        return AckReply(client_id=call.client_id)

    # -- crash lifecycle -------------------------------------------------------------

    def crash(self) -> None:
        """Power-fail the node: volatile state lost, NVRAM/disk survive."""
        self.crashed = True
        self.endpoint.crash()

    def restart(self, lose_nvram: bool = False) -> None:
        """Rebuild semantic state by scanning the durable stream.

        ``lose_nvram=True`` models a server *without* battery backup:
        the open (unsealed) track is volatile and its records are lost,
        which is exactly the failure mode Section 4.1's footnote rules
        unacceptable — tests use it to demonstrate why.
        """
        if lose_nvram:
            self.stream._open_track = []
            self.stream._open_track_bytes = 0
            self.nvram.drain(self.nvram.level)
        store, _replayed = self.stream.crash_scan(
            self.server_id, lose_open_track=False
        )
        self.store = store
        # the index is volatile; rebuild it from the sealed tracks
        self.index.rebuild(self.stream)
        self._proto = {}
        for client_id in store.known_clients():
            state = store.client_state(client_id)
            proto = self._proto_state(client_id)
            high = state.high_lsn
            if high is not None:
                proto.note_stored(high, state.high_epoch)
        self.endpoint.restart()
        self.crashed = False

    # -- reporting ------------------------------------------------------------------

    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    def disk_utilization(self) -> float:
        return self.disk.utilization()
