"""The single-copy log-server abstraction of Section 3.1.1.

A :class:`LogServerStore` models the durable state of one log server
node.  A server stores, for each client, a sequence of records written
with non-decreasing LSNs and non-decreasing epoch numbers, grouped into
intervals of consecutive LSNs sharing an epoch.  The three abstract
operations of Section 3.1.1 are provided —

* ``server_write_log`` (ServerWriteLog),
* ``server_read_log`` (ServerReadLog), and
* ``interval_list`` (IntervalList),

— plus the two recovery calls the realistic interface of Section 4.2
adds: ``copy_log`` (CopyLog: staged rewrites of possibly-partially-
written records, accepted below the high-water mark) and
``install_copies`` (InstallCopies: atomically install all records
staged under one epoch).

The store is deliberately transport-agnostic: the direct in-process
replicated log drives it straight from function calls (a procedure's
calls through :func:`store_performer`), and the simulated log-server
node (:mod:`repro.server`) drives the same store from network
messages, so the Section 3 semantics are implemented exactly once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import ProtocolError, RecordNotStored, ServerUnavailable
from .intervals import Interval, ServerIntervals
from .procedure import ACK, COPY, INSTALL, INTERVAL_LIST, READ, Call
from .records import Epoch, LSN, StoredRecord


@dataclass(slots=True)
class ClientLogState:
    """Records and staged copies one server holds for one client.

    A record is kept as the object the caller passed, and only its
    ``lsn``, ``epoch``, ``present`` and — on the duplicate check —
    ``data`` are read here: the file-backed daemon
    (:mod:`repro.rt.filestore`) stores payload-free handles whose
    ``data`` reads the bytes back, so these rules run on its index
    unchanged.
    """

    client_id: str
    #: records in write order; (lsn, epoch) strictly increasing
    #: lexicographically in (epoch, lsn) and non-decreasing in each
    #: coordinate separately.
    records: list[StoredRecord] = field(default_factory=list)
    #: staged CopyLog records keyed by epoch, installed atomically.
    staged: dict[Epoch, list[StoredRecord]] = field(default_factory=dict)
    #: fast lookup of the highest-epoch copy of each LSN.
    _by_lsn: dict[LSN, StoredRecord] = field(default_factory=dict)
    #: the keys of ``_by_lsn`` in ascending order — the index ReadLog
    #: bisects and walks, and whose last element is the high LSN.
    #: Maintained where ``_by_lsn`` is: one list append when a record
    #: is the new maximum (the only case the steady write path hits),
    #: an ``insort`` when a new epoch fills a hole below it, nothing
    #: when InstallCopies rewrites a stored LSN, and one slice delete
    #: on truncation.  Readers get the list itself: do not mutate it.
    lsns: list[LSN] = field(default_factory=list)
    #: maximal consecutive-LSN/same-epoch runs as ``[epoch, lo, hi]``,
    #: maintained incrementally: append order *is* (epoch, lsn) sorted
    #: order (the write-order rules enforce it), so extending the last
    #: run reproduces exactly what compressing all records would build.
    _runs: list[list] = field(default_factory=list)
    #: Section 5.3 low-water mark: records below it have been dropped;
    #: late retransmissions of them are silently ignored.
    truncated_below: LSN = 0

    @property
    def high_lsn(self) -> LSN | None:
        """Highest LSN stored here, or None if empty."""
        lsns = self.lsns
        return lsns[-1] if lsns else None

    @property
    def high_epoch(self) -> Epoch:
        """Highest epoch ever written here (0 if empty)."""
        if not self.records:
            return 0
        return self.records[-1].epoch

    def append(self, record: StoredRecord) -> None:
        """Append one record, enforcing the write-order rules.

        "Successive records on a log server are written with
        non-decreasing LSNs and non-decreasing epoch numbers", and a
        record is uniquely identified by its ⟨LSN, epoch⟩ pair.
        """
        if self.records:
            last = self.records[-1]
            if record.epoch < last.epoch:
                raise ProtocolError(
                    f"epoch went backwards: {last.epoch} -> {record.epoch}"
                )
            if record.epoch == last.epoch and record.lsn <= last.lsn:
                raise ProtocolError(
                    f"LSN did not advance within epoch {record.epoch}: "
                    f"{last.lsn} -> {record.lsn}"
                )
            if record.epoch > last.epoch and record.lsn < self._min_restart_lsn():
                # A new epoch may restart at or above the copy point but
                # never below record 1 of the log; enforced loosely —
                # the client algorithm only ever replays the tail.
                raise ProtocolError(
                    f"new-epoch LSN {record.lsn} below 1"
                )
        self.records.append(record)
        lsn = record.lsn
        cur = self._by_lsn.get(lsn)
        if cur is None or record.epoch > cur.epoch:
            self._by_lsn[lsn] = record
        lsns = self.lsns
        if not lsns or lsn > lsns[-1]:
            lsns.append(lsn)
        elif cur is None:
            insort(lsns, lsn)
        runs = self._runs
        if runs and runs[-1][0] == record.epoch and runs[-1][2] == lsn - 1:
            runs[-1][2] = lsn
        else:
            runs.append([record.epoch, lsn, lsn])

    def _min_restart_lsn(self) -> LSN:
        return 1

    def lookup(self, lsn: LSN) -> StoredRecord | None:
        """The stored record with the given LSN and highest epoch."""
        return self._by_lsn.get(lsn)

    def intervals(self) -> tuple[Interval, ...]:
        """The consecutive-LSN / same-epoch runs stored here."""
        return tuple(Interval(e, lo, hi) for e, lo, hi in self._runs)

    def truncate_below(self, low_water: LSN) -> int:
        """Drop every record with ``lsn < low_water``; return the count.

        Section 5.3 log space management: the client has declared that
        records below its low-water mark are needed by no recovery
        class, so the server may reclaim their space.  Interval runs
        are clipped at the mark — truncation deliberately decouples
        space reclamation from the strict write ordering (the retained
        suffix still satisfies every write-order rule, because a
        subsequence of a legally ordered sequence is legally ordered).
        """
        if low_water <= self.truncated_below:
            return 0
        before = len(self.records)
        self.records = [r for r in self.records if r.lsn >= low_water]
        dropped = before - len(self.records)
        if dropped:
            lsns = self.lsns
            cut = bisect_left(lsns, low_water)
            for lsn in lsns[:cut]:
                del self._by_lsn[lsn]
            del lsns[:cut]
            clipped: list[list] = []
            for epoch, lo, hi in self._runs:
                if hi < low_water:
                    continue
                clipped.append([epoch, max(lo, low_water), hi])
            self._runs = clipped
        self.truncated_below = low_water
        return dropped

    def stage_copy(self, record: StoredRecord) -> None:
        """Stage a CopyLog record for later atomic installation."""
        self.staged.setdefault(record.epoch, []).append(record)

    def install(self, epoch: Epoch) -> int:
        """Install all records staged under ``epoch``; return the count.

        Installation appends the staged records in LSN order.  CopyLog
        records may have LSNs at or below the server's high-water mark;
        their (strictly higher) epoch keeps the append ordering rules
        satisfied.  Installing an epoch with nothing staged is a no-op
        (the call is idempotent after a duplicate message).
        """
        staged = self.staged.pop(epoch, [])
        for record in sorted(staged, key=lambda r: r.lsn):
            self.append(record)
        return len(staged)


class LogServerStore:
    """Durable state of one log server node, holding many clients' logs.

    ``available`` models whole-node up/down status for the availability
    experiments (Section 3.2): an unavailable server raises
    :class:`ServerUnavailable` from every operation.  Durable contents
    survive unavailability — the paper's log servers keep log data on
    disk and NVRAM, so a crash loses no acknowledged record.
    """

    def __init__(self, server_id: str):
        self.server_id = server_id
        self.available = True
        self._clients: dict[str, ClientLogState] = {}
        # simple op counters for the load-assignment experiments
        self.write_ops = 0
        self.read_ops = 0

    # -- failure injection --------------------------------------------

    def crash(self) -> None:
        """Mark the server down.  Durable state is retained."""
        self.available = False

    def restart(self) -> None:
        """Bring the server back up with its durable state intact."""
        self.available = True

    def _check_up(self) -> None:
        if not self.available:
            raise ServerUnavailable(self.server_id, "server is down")

    # -- state access --------------------------------------------------

    def client_state(self, client_id: str) -> ClientLogState:
        state = self._clients.get(client_id)
        if state is None:
            state = ClientLogState(client_id)
            self._clients[client_id] = state
        return state

    def find_client(self, client_id: str) -> ClientLogState | None:
        """The client's state, or ``None`` — never created here.

        :meth:`client_state` creates the state it does not find, which
        suits the simulated server; a daemon answering reads from the
        network uses this instead, or a peer naming fresh ids would
        grow it without bound.
        """
        return self._clients.get(client_id)

    def known_clients(self) -> list[str]:
        return sorted(self._clients)

    # -- the Section 3.1.1 operations -----------------------------------

    def server_write_log(
        self,
        client_id: str,
        lsn: LSN,
        epoch: Epoch,
        present: bool,
        data: bytes = b"",
        kind: str = "data",
    ) -> None:
        """ServerWriteLog: append one record for ``client_id``.

        Builds the record and stores it through
        :meth:`server_write_record`, which holds the write rules.  A
        not-present record carrying data is refused by the record's
        own invariant.
        """
        self.server_write_record(client_id, StoredRecord(
            lsn=lsn, epoch=epoch, present=present, data=data, kind=kind,
        ))

    def server_write_record(self, client_id: str,
                            record: StoredRecord) -> bool:
        """ServerWriteLog taking a ready :class:`StoredRecord`.

        Stored records are immutable and already enforce the
        present/data invariant, so the simulated server keeps the
        caller's object instead of rebuilding an identical one — this
        is the per-record hot path of the target-load experiment.

        Returns ``True`` when the record was newly stored, ``False``
        when it was dropped as a duplicate retransmission (or a late
        retransmission of a reclaimed record) — so the durable layer
        can decide whether to append without a second lookup.
        """
        self._check_up()
        state = self._clients.get(client_id)
        if state is None:
            state = self.client_state(client_id)
        lsn = record.lsn
        epoch = record.epoch
        if lsn < state.truncated_below:
            return False  # late retransmission of a reclaimed record
        existing = state._by_lsn.get(lsn)
        if existing is not None and existing.epoch == epoch:
            if existing.present == record.present \
                    and existing.data == record.data:
                return False  # duplicate retransmission
            raise ProtocolError(
                f"conflicting rewrite of ⟨{lsn},{epoch}⟩ "
                f"on {self.server_id}"
            )
        # ClientLogState.append inlined: the call and its second
        # ``_by_lsn`` probe (``existing`` is already in hand) are
        # measurable at one invocation per stored record.
        records = state.records
        if records:
            last = records[-1]
            if epoch < last.epoch:
                raise ProtocolError(
                    f"epoch went backwards: {last.epoch} -> {epoch}"
                )
            if epoch == last.epoch and lsn <= last.lsn:
                raise ProtocolError(
                    f"LSN did not advance within epoch {epoch}: "
                    f"{last.lsn} -> {lsn}"
                )
            if epoch > last.epoch and lsn < state._min_restart_lsn():
                raise ProtocolError(f"new-epoch LSN {lsn} below 1")
        records.append(record)
        if existing is None or epoch > existing.epoch:
            state._by_lsn[lsn] = record
        lsns = state.lsns
        if not lsns or lsn > lsns[-1]:
            lsns.append(lsn)
        elif existing is None:
            insort(lsns, lsn)
        runs = state._runs
        if runs and runs[-1][0] == epoch and runs[-1][2] == lsn - 1:
            runs[-1][2] = lsn
        else:
            runs.append([epoch, lsn, lsn])
        self.write_ops += 1
        return True

    def server_read_log(self, client_id: str, lsn: LSN) -> StoredRecord:
        """ServerReadLog: highest-epoch record with the requested LSN.

        "A log server does not respond to ServerReadLog requests for
        records that it does not store, but it must respond to requests
        for records that are stored, regardless of whether they are
        marked present or not."  Not storing the record is modelled as
        :class:`RecordNotStored` (a per-server unavailability, not a
        log-level error).
        """
        self._check_up()
        record = self.client_state(client_id).lookup(lsn)
        if record is None:
            raise RecordNotStored(self.server_id, lsn)
        self.read_ops += 1
        return record

    def interval_list(self, client_id: str) -> ServerIntervals:
        """IntervalList: the epoch/lo/hi triples for ``client_id``."""
        self._check_up()
        state = self.client_state(client_id)
        return ServerIntervals(self.server_id, state.intervals())

    # -- the Section 4.2 recovery calls ---------------------------------

    def copy_log(
        self,
        client_id: str,
        lsn: LSN,
        epoch: Epoch,
        present: bool,
        data: bytes = b"",
        kind: str = "data",
    ) -> None:
        """CopyLog: stage a record rewrite under a new epoch.

        "Log servers accept CopyLog calls for records with LSNs that
        are lower than the highest log sequence number written to the
        log server."  The record stays invisible to reads and interval
        lists until InstallCopies.
        """
        self.copy_record(client_id, StoredRecord(
            lsn=lsn, epoch=epoch, present=present,
            data=data if present else b"", kind=kind,
        ))

    def copy_record(self, client_id: str, record: StoredRecord) -> None:
        """CopyLog taking a ready record, kept as the caller's object
        (what :meth:`server_write_record` is to ServerWriteLog)."""
        self._check_up()
        state = self.client_state(client_id)
        if record.epoch <= state.high_epoch:
            raise ProtocolError(
                f"CopyLog epoch {record.epoch} not above server high epoch "
                f"{state.high_epoch}"
            )
        state.stage_copy(record)

    def install_copies(self, client_id: str, epoch: Epoch) -> int:
        """InstallCopies: atomically install all records staged at ``epoch``."""
        self._check_up()
        installed = self.client_state(client_id).install(epoch)
        self.write_ops += installed
        return installed

    # -- Section 5.3: log space management --------------------------------

    def truncate_below(self, client_id: str, low_water: LSN) -> int:
        """Drop a client's records below its declared low-water mark."""
        self._check_up()
        return self.client_state(client_id).truncate_below(low_water)

    def record_count(self) -> int:
        """Total records retained across all clients.

        The file-backed daemon keeps one fixed-size handle per retained
        record, so this is proportional to its resident index — not to
        the payload bytes, which stay on disk."""
        return sum(len(s.records) for s in self._clients.values())

    # -- diagnostics -----------------------------------------------------

    def dump_table(self, client_id: str) -> list[tuple[LSN, Epoch, str]]:
        """Render a client's records like the paper's figure tables.

        Returns ``(LSN, Epoch, 'yes'|'no')`` rows in write order —
        directly comparable with Figures 3-1, 3-2 and 3-3.
        """
        state = self.client_state(client_id)
        return [
            (r.lsn, r.epoch, "yes" if r.present else "no")
            for r in state.records
        ]


def store_performer(
    stores: Mapping[str, LogServerStore], client_id: str,
) -> Callable[[Call], object]:
    """The direct driver's half of :func:`repro.core.procedure.run`.

    Answers a procedure's log-server calls with plain method calls on
    ``stores``; a server id with no store is an unavailable server, and
    a crashed store raises :class:`ServerUnavailable` itself.  A store
    has no generator representative and no fence, so a procedure that
    asks for one was handed the wrong driver.
    """

    def perform(call: Call):
        store = stores.get(call.server_id)
        if store is None:
            raise ServerUnavailable(call.server_id, "no such server")
        op, args = call.op, call.args
        if op == INTERVAL_LIST:
            return store.interval_list(client_id).intervals
        if op == READ:
            return (store.server_read_log(client_id, *args),)
        if op == COPY:
            for record in args[1]:
                store.copy_record(client_id, record)
            return ACK
        if op == INSTALL:
            store.install_copies(client_id, *args)
            return ACK
        raise NotImplementedError(f"a log-server store cannot serve {op!r}")

    return perform
