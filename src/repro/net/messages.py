"""The client ↔ log-server message set of Figure 4-1 (Section 4.2).

Asynchronous messages from client to log server::

    WriteLog(ClientId, EpochNum, LSNs, LogRecords)
    ForceLog(ClientId, EpochNum, LSNs, LogRecords)
    NewInterval(ClientId, EpochNum, StartingLSN)

Asynchronous messages from log server to client::

    NewHighLSN(NewHighLSN)
    MissingInterval(MissingInterval)

Synchronous calls from client to log server::

    IntervalList(ClientId) -> IntervalList
    ReadLogForward(ClientId, LSN[, MaxRecords]) -> LSNs, LogRecords, PresentFlags
    ReadLogBackward(ClientId, LSN[, MaxRecords]) -> LSNs, LogRecords, PresentFlags
    CopyLog(ClientId, EpochNum, LSNs, LogRecords, PresentFlags)
    InstallCopies(ClientId, EpochNum)

All messages are small dataclasses with a ``wire_size`` so the
LAN model can charge transmission time.  Multi-record messages carry
consecutive LSNs ("client processes and log servers attempt to pack as
many log records as will fit in a network packet in each call").  A
ReadLog call may instead say how many records it wants (``max_records``):
the packet was a 1987-Ethernet limit, and over TCP a point read wants
one record while a scan wants as many as a reply may hold.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from ..core import procedure
from ..core.intervals import Interval
from ..core.records import Epoch, LSN, StoredRecord

#: Per-record wire overhead: LSN, epoch, flags, length.
RECORD_HEADER_BYTES = 16
#: Fixed message overhead: type, client id, epoch, counts.
MESSAGE_HEADER_BYTES = 32


def records_wire_size(records: tuple[StoredRecord, ...]) -> int:
    return sum(RECORD_HEADER_BYTES + len(r.data) for r in records)


@dataclass(slots=True)
class Message:
    """Base for all protocol messages."""

    client_id: str

    @property
    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES


def _check_consecutive(records: tuple[StoredRecord, ...], epoch: Epoch) -> None:
    for prev, cur in zip(records, records[1:]):
        if cur.lsn != prev.lsn + 1:
            raise ValueError(
                f"message records must have consecutive LSNs: "
                f"{prev.lsn} then {cur.lsn}"
            )
    for rec in records:
        if rec.epoch != epoch:
            raise ValueError(
                f"record epoch {rec.epoch} differs from message epoch {epoch}"
            )


# -- asynchronous, client -> server ---------------------------------------


@dataclass(slots=True)
class WriteLogMsg(Message):
    """Buffered write: no acknowledgment requested."""

    epoch: Epoch = 0
    records: tuple[StoredRecord, ...] = ()

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("WriteLog carries at least one record")
        _check_consecutive(self.records, self.epoch)

    @classmethod
    def trusted(cls, client_id: str, epoch: Epoch,
                records: tuple[StoredRecord, ...]):
        """Build without re-validating ``records``.

        For the client's own send path: it assigns consecutive LSNs
        and a uniform epoch by construction, so the ``__post_init__``
        scan over the batch is pure overhead there.  Anything arriving
        off the wire still goes through the validating constructor.
        """
        msg = cls.__new__(cls)
        msg.client_id = client_id
        msg.epoch = epoch
        msg.records = records
        return msg

    @property
    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + records_wire_size(self.records)

    @property
    def low_lsn(self) -> LSN:
        return self.records[0].lsn

    @property
    def high_lsn(self) -> LSN:
        return self.records[-1].lsn


@dataclass(slots=True)
class ForceLogMsg(WriteLogMsg):
    """Write requiring an immediate NewHighLSN acknowledgment.

    "A client writes log records with the ForceLog message when it
    needs an immediate acknowledgment, and with the WriteLog message
    when it does not."
    """


@dataclass(slots=True)
class NewIntervalMsg(Message):
    """Tell the server to start a new interval at ``starting_lsn``.

    Sent in response to MissingInterval when the missing records were
    already written elsewhere (the client switched servers).
    """

    epoch: Epoch = 0
    starting_lsn: LSN = 1


# -- asynchronous, server -> client ---------------------------------------


@dataclass(slots=True)
class NewHighLSNMsg(Message):
    """Acknowledgment: all records up to ``new_high_lsn`` are durable here.

    ``client_id`` names the client whose log is acknowledged (the
    server serves many clients over one transport endpoint).
    """

    new_high_lsn: LSN = 0


@dataclass(slots=True)
class MissingIntervalMsg(Message):
    """Negative acknowledgment: the server saw a gap ``[lo, hi]``.

    "A server detects lost messages when it receives a ForceLog or
    WriteLog message with log sequence numbers that are not contiguous
    with those it has previously received from the same client."
    """

    lo: LSN = 0
    hi: LSN = 0


# -- synchronous calls -------------------------------------------------------


@dataclass(slots=True)
class IntervalListCall(Message):
    """Request the server's interval list for this client."""


@dataclass(slots=True)
class IntervalListReply(Message):
    intervals: tuple[Interval, ...] = ()

    @property
    def wire_size(self) -> int:
        # three integers per interval, as the paper counts them
        return MESSAGE_HEADER_BYTES + 12 * len(self.intervals)


#: ``max_records`` of a scan — no limit of the caller's own, the server
#: fills the reply to its cap: the largest value the field carries.
MAX_RECORDS_ANY = 2**32 - 1


@dataclass(slots=True)
class ReadLogForwardCall(Message):
    """Read records with LSNs >= ``lsn``: at most ``max_records`` of
    them, or — when that is 0 — as many as fit in a packet."""

    lsn: LSN = 1
    #: the most records the reply may carry (the server also caps a
    #: reply's bytes); 0 asks for the paper's one packet's worth, which
    #: is all the simulated server ever sends.  Not counted by
    #: ``wire_size``: it rides in a header field that was always there.
    max_records: int = 0


@dataclass(slots=True)
class ReadLogBackwardCall(Message):
    """Read records with LSNs <= ``lsn``: at most ``max_records`` of
    them, or — when that is 0 — as many as fit in a packet."""

    lsn: LSN = 1
    #: as for :class:`ReadLogForwardCall`.
    max_records: int = 0


@dataclass(slots=True)
class ReadLogReply(Message):
    """Records with present flags; empty if the server stores none."""

    records: tuple[StoredRecord, ...] = ()

    @property
    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + records_wire_size(self.records)


@dataclass(slots=True)
class CopyLogCall(Message):
    """Stage recovery copies (accepted below the high-water mark)."""

    epoch: Epoch = 0
    records: tuple[StoredRecord, ...] = ()

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("CopyLog carries at least one record")
        for rec in self.records:
            if rec.epoch != self.epoch:
                raise ValueError("CopyLog records must carry the call epoch")

    @property
    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + records_wire_size(self.records)


@dataclass(slots=True)
class InstallCopiesCall(Message):
    """Atomically install all records staged under ``epoch``."""

    epoch: Epoch = 0


@dataclass(slots=True)
class AckReply(Message):
    """Generic success reply for CopyLog / InstallCopies."""

    ok: bool = True


#: ErrorReply codes — a closed registry so clients can react to the
#: *class* of failure without parsing the human-readable reason.
ERR_GENERIC = 0
#: The server's durable storage failed (disk full, IO error); the
#: daemon degrades to read-only instead of dropping the connection.
ERR_STORAGE = 1
#: The request violated the protocol (bad epoch, conflicting rewrite).
ERR_PROTOCOL = 2
#: The tenant is over an admission quota (streams or records/s).  A
#: fleet-wide condition, not a per-server one: the client should back
#: off and retry, not switch servers.
ERR_QUOTA = 3
#: The stream was fenced at a higher ownership epoch (a linearizable
#: handoff took the log away from this writer).  Terminal for the old
#: owner: neither retrying nor switching servers can ever succeed.
ERR_FENCED = 4


@dataclass(slots=True)
class ErrorReply(Message):
    """Typed failure reply for synchronous calls.

    ``code`` classifies the failure (``ERR_*``); ``reason`` is the
    human-readable detail.  A storage failure (``ERR_STORAGE``) is a
    per-server condition — the client routes around it exactly like a
    crashed server, but the TCP connection stays up for reads.
    """

    reason: str = ""
    code: int = ERR_GENERIC

    @property
    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + len(self.reason.encode("utf-8"))


# -- keep-alive probes (runtime hardening) ----------------------------------
#
# The paper's availability argument (Section 3.2) assumes a client can
# cheaply abandon a misbehaving server for a spare.  A *hung* server —
# stopped, swapped out, wedged behind a full disk queue — keeps its TCP
# connection "established" indefinitely, so liveness needs an
# application-level probe: the client pings an idle connection and
# demotes the server after a couple of unanswered probes, far faster
# than one full call timeout.


@dataclass(slots=True)
class PingMsg(Message):
    """Client keep-alive probe; the server echoes ``token`` in a Pong."""

    token: int = 0


@dataclass(slots=True)
class PongMsg(Message):
    """Server reply to a Ping, echoing its ``token``."""

    token: int = 0


# -- Section 5.3: log space management ---------------------------------------


@dataclass(slots=True)
class TruncateLogCall(Message):
    """Client-driven truncation: records below ``low_water_lsn`` are no
    longer needed for this client's node or media recovery.

    "Client recovery managers can use checkpoints and other mechanisms
    to limit the online log storage required for node recovery"
    (Section 5.3) — this call carries the resulting low-water mark to a
    log server, which may drop every stored record of this client with
    a lower LSN and compact its append stream.

    ``epoch`` is the caller's ownership epoch, checked against the
    stream's fence.  Epoch 0 marks a legacy/unfenced caller: it passes
    only while no fence has ever been installed for the stream.
    """

    low_water_lsn: LSN = 1
    epoch: Epoch = 0


@dataclass(slots=True)
class TruncateReply(Message):
    """Acknowledges a TruncateLog: the applied mark and records dropped."""

    low_water_lsn: LSN = 1
    records_dropped: int = 0


# -- ownership fencing (linearizable handoff) ---------------------------------
#
# The paper restricts each log to a single client; fencing is what
# makes *changing* that client safe under partitions.  A new owner
# draws a higher epoch from the Appendix-I generator quorum and
# installs it as the stream's fence on at least M−N+1 servers — every
# N-server write set intersects that quorum, so any in-flight
# WriteLog/ForceLog/TruncateLog from the old owner (whose epoch is now
# below the fence) is refused with ``ERR_FENCED`` before a byte is
# appended.  The fence is durable: a server that crashes and recovers
# still refuses the fenced writer.


@dataclass(slots=True)
class FenceLogCall(Message):
    """Install ``epoch`` as the fence for this client's stream.

    Monotone: a fence below the stream's current fence is refused
    (``ERR_FENCED`` carries the standing fence), so two racing
    takeovers linearize on the generator epoch order.
    """

    epoch: Epoch = 0


@dataclass(slots=True)
class FenceReply(Message):
    """Acknowledges a FenceLog: the stream's standing fence epoch."""

    epoch: Epoch = 0


# -- stats (the operator/metrics endpoint) -----------------------------------

#: Counter names carried by :class:`StatsReply`, in wire order.  The
#: tuple is part of the wire contract: both ends index into it.
STATS_COUNTERS: tuple[str, ...] = (
    "messages_handled",
    "missing_intervals_sent",
    "forces_acked",
    "pings_answered",
    "bytes_appended",
    "log_bytes",
    "store_records",
    "truncations",
    "truncated_lsn",       # this client's low-water mark (0 = never)
    "storage_errors",
    "injected_faults",     # faults the I/O backend injected (chaos runs)
    "recovery_replays",    # entries replayed from log.dat at last start
    "crc_rejections",      # complete-but-corrupt entries CRC rejected
    # group-commit observability (appended: old replies simply lack them)
    "fsyncs",              # log-file fsyncs issued, per-entry and grouped
    "records_per_fsync",   # records_appended // fsyncs — the batching win
    "forces_coalesced",    # forces that rode a shared group fsync
    "send_iovecs",         # buffers handed to vectored reply writes
    # multi-tenant admission (appended after the group-commit block)
    "quota_rejections",    # writes/forces refused with ERR_QUOTA
    "tenant_streams",      # distinct client streams admitted, all tenants
    # ownership fencing (appended after the admission block)
    "fence_rejections",    # writes/forces/truncates refused with ERR_FENCED
    "fence_epoch",         # this client's standing fence (0 = unfenced)
    # read-ahead of scans (appended after the fencing block: old
    # replies simply lack them)
    "read_ahead_hits",     # scan calls answered from a reply built ahead
    "read_ahead_wasted",   # replies built ahead that no call took
)


@dataclass(slots=True)
class StatsCall(Message):
    """Ask a daemon for its counters (``repro stats HOST:PORT``)."""


@dataclass(slots=True)
class StatsReply(Message):
    """Daemon counters, one u64 per :data:`STATS_COUNTERS` entry."""

    counters: tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + 8 * len(self.counters)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(STATS_COUNTERS, self.counters))


# -- Appendix I: generator-state representative calls --------------------------
#
# "Representatives of a replicated identifier generator's state will
# normally be implemented on log server nodes" — so the Read and Write
# operations of Appendix I travel over the same connections as the log
# traffic.  ``client_id`` is unused (the generator is a node-level
# service) but kept for the common message shape.


@dataclass(slots=True)
class GeneratorReadCall(Message):
    """Read the representative's stored integer."""


@dataclass(slots=True)
class GeneratorReadReply(Message):
    value: int = 0


@dataclass(slots=True)
class GeneratorWriteCall(Message):
    """Write a (higher) integer to the representative."""

    value: int = 0


# -- core procedures on the wire ----------------------------------------------
#
# The sans-IO procedures of :mod:`repro.core.procedure` name operations
# and exchange plain values; both network drivers (simulated RPC and
# TCP) translate through these two functions.

_PROCEDURE_CALLS: dict[str, Callable[..., Message]] = {
    procedure.INTERVAL_LIST: IntervalListCall,
    # "the record under this LSN" (the direct driver answers with
    # exactly that): one record; a server that ignores the field — the
    # simulated one — sends a packet's worth and the procedure picks
    # its record out of it.
    procedure.READ: partial(ReadLogForwardCall, max_records=1),
    procedure.COPY: CopyLogCall,
    procedure.INSTALL: InstallCopiesCall,
    procedure.GEN_READ: GeneratorReadCall,
    procedure.GEN_WRITE: GeneratorWriteCall,
    procedure.FENCE: FenceLogCall,
}


def call_message(client_id: str, call: procedure.Call) -> Message:
    """The synchronous call that carries a procedure's request."""
    return _PROCEDURE_CALLS[call.op](client_id, *call.args)


def reply_value(reply: Message) -> object:
    """What a procedure is sent back for a synchronous call's reply.

    A reply of an unexpected type is handed over unchanged; it fails
    the procedure's own test for the value it needs and is not counted.
    """
    if isinstance(reply, ReadLogReply):
        return reply.records
    if isinstance(reply, IntervalListReply):
        return reply.intervals
    if isinstance(reply, GeneratorReadReply):
        return reply.value
    if isinstance(reply, (AckReply, FenceReply)):
        return procedure.ACK
    return reply
