"""A write-ahead-logging recovery manager for the client node.

The paper assumes "most transaction processing systems use logging for
recovery [Gray 78]" and builds its load model from the TABS recovery
manager's behaviour: per-transaction update records buffered in client
memory, one forced commit record, undo/redo components (Section 5.2).
This module supplies that client: a small key-value database with a
volatile page cache, transactions with redo/undo logging, commit
forces, aborts, page cleaning under the WAL rule, checkpoints, and
restart recovery driven from the replicated log.

All mutating operations are generators (``yield from`` them) so the
same code runs over the direct and the simulated log backends.

Log record encoding (pipe-separated text; values must not contain
``|``)::

    B|txid                     transaction begin
    U|txid|key|old|new         combined undo/redo update
    R|txid|key|new             redo component (when splitting)
    N|txid|key|old             undo component (when splitting)
    C|txid                     commit (forced)
    A|txid                     abort
    K|txid,txid,...            checkpoint: transactions active at the time
    S|txid|sp                  savepoint (Section 2's long transactions)
    P|txid|sp                  partial rollback to savepoint ``sp``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from ..core.errors import NotEnoughServers, NotInitialized
from ..core.records import LSN
from .splitting import UndoCache


class TxnStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionError(Exception):
    """Illegal transaction-state transition or malformed log record."""


class TransactionAborted(TransactionError):
    """A commit lost its log quorum; the transaction was rolled back.

    Raised only when the manager was built with ``reinitialize``: the
    backend has already been re-established, the transaction's volatile
    updates undone, and the caller may simply run the transaction
    again.
    """


# -- record encoding ----------------------------------------------------------


def encode_begin(txid: int) -> bytes:
    return f"B|{txid}".encode()


def encode_update(txid: int, key: str, old: str, new: str) -> bytes:
    _check_fields(key, old, new)
    return f"U|{txid}|{key}|{old}|{new}".encode()


def encode_redo(txid: int, key: str, new: str) -> bytes:
    _check_fields(key, new)
    return f"R|{txid}|{key}|{new}".encode()


def encode_undo(txid: int, key: str, old: str) -> bytes:
    _check_fields(key, old)
    return f"N|{txid}|{key}|{old}".encode()


def encode_commit(txid: int) -> bytes:
    return f"C|{txid}".encode()


def encode_abort(txid: int) -> bytes:
    return f"A|{txid}".encode()


def encode_checkpoint(active_txids: list[int]) -> bytes:
    return ("K|" + ",".join(str(t) for t in active_txids)).encode()


def encode_savepoint(txid: int, sp: int) -> bytes:
    return f"S|{txid}|{sp}".encode()


def encode_rollback(txid: int, sp: int) -> bytes:
    return f"P|{txid}|{sp}".encode()


def _check_fields(*fields: str) -> None:
    for value in fields:
        if "|" in value:
            raise TransactionError(f"field may not contain '|': {value!r}")


def decode(data: bytes) -> tuple[str, ...]:
    """Split a log record back into its fields."""
    parts = data.decode().split("|")
    if not parts or parts[0] not in "BURNCAKSP":
        raise TransactionError(f"unrecognized log record {data!r}")
    return tuple(parts)


# -- the database --------------------------------------------------------------


class Database:
    """A key-value store with a stable copy and a volatile page cache.

    ``stable`` models the node's data disk; ``cache`` the in-memory
    pages.  :meth:`clean` flushes one key to stable storage — the event
    that, under WAL, requires the key's undo components to be in the
    log first (Section 5.2).  :meth:`crash` drops the cache.
    """

    def __init__(self, initial: dict[str, str] | None = None):
        self.stable: dict[str, str] = dict(initial or {})
        self.cache: dict[str, str] = {}
        self.cleans = 0

    def read(self, key: str) -> str:
        if key in self.cache:
            return self.cache[key]
        return self.stable.get(key, "")

    def write_volatile(self, key: str, value: str) -> None:
        self.cache[key] = value

    def dirty_keys(self) -> list[str]:
        return sorted(self.cache)

    def clean_to_stable(self, key: str) -> None:
        """Move one cached page to stable storage (caller enforces WAL)."""
        if key in self.cache:
            self.stable[key] = self.cache.pop(key)
            self.cleans += 1

    def crash(self) -> None:
        self.cache.clear()


# -- transactions -----------------------------------------------------------------


@dataclass
class Transaction:
    """One transaction's volatile bookkeeping."""

    txid: int
    status: TxnStatus = TxnStatus.ACTIVE
    #: (key, old, new, lsn) per update, in order — the in-memory undo
    #: trail used for aborts when records are *not* split.
    updates: list[tuple[str, str, str, LSN]] = field(default_factory=list)
    begin_lsn: LSN = 0
    records_written: int = 0
    bytes_logged: int = 0
    #: savepoint id -> position in ``updates`` at declaration time.
    savepoints: dict[int, int] = field(default_factory=dict)


class RecoveryManager:
    """Begin/update/commit/abort + restart recovery over a log backend.

    With ``undo_cache`` set, update records are *split* (Section 5.2):
    the redo component goes to the log immediately, the undo component
    stays in the cache until the transaction commits (discarded) or its
    page is cleaned (logged first, WAL).  Without it, combined
    undo/redo records are logged.
    """

    def __init__(
        self,
        backend,
        db: Database,
        undo_cache: UndoCache | None = None,
        checkpoint_every: int = 0,
        reinitialize=None,
        max_log_retries: int = 2,
    ):
        self._txids = itertools.count(1)
        self.backend = backend
        self.db = db
        self.undo_cache = undo_cache
        self.checkpoint_every = checkpoint_every
        #: optional generator callable re-establishing the log backend
        #: after a transient ``NotEnoughServers`` (typically the
        #: client's ``initialize_with_retry``).  ``None`` keeps the
        #: historical fail-fast behaviour.
        self.reinitialize = reinitialize
        self.max_log_retries = max_log_retries
        self.active: dict[int, Transaction] = {}
        self._since_checkpoint = 0
        # statistics for the splitting ablation
        self.records_logged = 0
        self.bytes_logged = 0
        self.undo_records_logged = 0
        self.local_aborts = 0
        self.remote_abort_reads = 0
        #: times the backend was re-established mid-operation.
        self.backend_recoveries = 0

    # -- logging helper ---------------------------------------------------------

    def _log(self, data: bytes, kind: str, txn: Transaction | None = None):
        attempt = 0
        while True:
            try:
                lsn = yield from self.backend.log(data, kind)
                break
            except (NotEnoughServers, NotInitialized):
                # Only safe to retry when no earlier record of this
                # transaction could have been lost with the old quorum
                # (a re-established log starts a fresh epoch; records
                # buffered before the loss are masked by its guards).
                retryable = txn is None or txn.records_written == 0
                if (not retryable or self.reinitialize is None
                        or attempt >= self.max_log_retries):
                    raise
                attempt += 1
                yield from self._recover_backend()
        self.records_logged += 1
        self.bytes_logged += len(data)
        if txn is not None:
            txn.records_written += 1
            txn.bytes_logged += len(data)
        return lsn

    def _recover_backend(self):
        """Re-establish the log after it lost its quorum mid-operation."""
        self.backend_recoveries += 1
        yield from self.reinitialize()

    # -- transaction operations ----------------------------------------------------

    def begin(self):
        """Start a transaction; returns the Transaction."""
        txn = Transaction(txid=next(self._txids))
        lsn = yield from self._log(encode_begin(txn.txid), "begin", txn)
        txn.begin_lsn = lsn
        self.active[txn.txid] = txn
        return txn

    def update(self, txn: Transaction, key: str, value: str):
        """Write ``key = value`` under ``txn``; returns the record LSN."""
        self._check_active(txn)
        old = self.db.read(key)
        if self.undo_cache is not None:
            lsn = yield from self._log(
                encode_redo(txn.txid, key, value), "redo", txn
            )
            self.undo_cache.add(txn.txid, key, old)
        else:
            lsn = yield from self._log(
                encode_update(txn.txid, key, old, value), "update", txn
            )
        txn.updates.append((key, old, value, lsn))
        self.db.write_volatile(key, value)
        return lsn

    def commit(self, txn: Transaction):
        """Write and force the commit record; returns its LSN.

        "Only the final commit record written by a local ET1
        transaction must be forced to disk."
        """
        self._check_active(txn)
        try:
            lsn = yield from self._log(encode_commit(txn.txid), "commit", txn)
            yield from self.backend.force()
        except (NotEnoughServers, NotInitialized):
            if self.reinitialize is None:
                raise
            # The commit never became durable, and the transaction's
            # buffered records died with the old quorum (the new
            # epoch's guards mask any partial write).  Undo volatile
            # state, re-establish the log, and report a clean abort so
            # the caller can rerun the whole transaction.
            for key, old, _new, _lsn in reversed(txn.updates):
                self.db.write_volatile(key, old)
            if self.undo_cache is not None:
                self.undo_cache.discard(txn.txid)
            txn.status = TxnStatus.ABORTED
            del self.active[txn.txid]
            yield from self._recover_backend()
            raise TransactionAborted(
                f"transaction {txn.txid}: commit force lost its log quorum"
            ) from None
        txn.status = TxnStatus.COMMITTED
        del self.active[txn.txid]
        if self.undo_cache is not None:
            self.undo_cache.discard(txn.txid)
        yield from self._maybe_checkpoint()
        return lsn

    def abort(self, txn: Transaction):
        """Undo the transaction's updates and log the abort record.

        With splitting, undo components come from the local cache —
        "the cached log records will speed up aborts … because log
        reads will go to the caches at the clients".  Without it, undo
        values are read back from the log (a remote read per update),
        modelling the abort path splitting exists to avoid.
        """
        self._check_active(txn)
        if self.undo_cache is not None:
            # Undo from the in-memory trail (applying each update's old
            # value newest-first restores the pre-transaction state even
            # with repeated keys).  Components still in the cache make
            # this free; components already cleaned to the log would
            # need a log-server read each — counted, since that is the
            # cost splitting's cache exists to avoid.
            cached = self.undo_cache.take_for_abort(txn.txid)
            for key, old, _new, _lsn in reversed(txn.updates):
                self.db.write_volatile(key, old)
            self.remote_abort_reads += max(0, len(txn.updates) - len(cached))
            self.local_aborts += 1
        else:
            for key, _old, _new, lsn in reversed(txn.updates):
                record = yield from self.backend.read(lsn)
                fields = decode(record.data)
                self.remote_abort_reads += 1
                self.db.write_volatile(key, fields[3])  # the old value
        yield from self._log(encode_abort(txn.txid), "abort", txn)
        txn.status = TxnStatus.ABORTED
        del self.active[txn.txid]

    def savepoint(self, txn: Transaction):
        """Declare a savepoint and force the log; returns its id.

        Section 2: long design transactions "use frequent save points";
        forcing makes everything up to the savepoint durable, so a
        later partial rollback is itself recoverable.
        """
        self._check_active(txn)
        sp = len(txn.savepoints) + 1
        txn.savepoints[sp] = len(txn.updates)
        yield from self._log(encode_savepoint(txn.txid, sp), "savepoint", txn)
        yield from self.backend.force()
        return sp

    def rollback_to_savepoint(self, txn: Transaction, sp: int):
        """Undo the transaction's updates back to savepoint ``sp``.

        The transaction stays active and may continue updating.  The
        rollback is logged (``P`` record) so restart recovery voids the
        rolled-back updates.
        """
        self._check_active(txn)
        if sp not in txn.savepoints:
            raise TransactionError(
                f"transaction {txn.txid} has no savepoint {sp}")
        position = txn.savepoints[sp]
        rolled_back = txn.updates[position:]
        for key, old, _new, _lsn in reversed(rolled_back):
            self.db.write_volatile(key, old)
        del txn.updates[position:]
        if self.undo_cache is not None:
            self.undo_cache.take_last(txn.txid, len(rolled_back))
        # savepoints declared after sp are gone
        for later in [s for s, pos in txn.savepoints.items() if pos > position]:
            del txn.savepoints[later]
        yield from self._log(encode_rollback(txn.txid, sp), "rollback", txn)
        return len(rolled_back)

    def _check_active(self, txn: Transaction) -> None:
        if txn.status is not TxnStatus.ACTIVE or txn.txid not in self.active:
            raise TransactionError(
                f"transaction {txn.txid} is {txn.status.value}, not active"
            )

    # -- page cleaning (WAL + splitting rule) ----------------------------------------

    def clean_page(self, key: str):
        """Flush one page to stable storage, honouring WAL.

        "If a page referenced by an undo component of a log record in
        the cache is scheduled for cleaning, the undo component must be
        sent to log servers first."
        """
        if self.undo_cache is not None:
            for txid, old in self.undo_cache.take_for_clean(key):
                yield from self._log(encode_undo(txid, key, old), "undo")
                self.undo_records_logged += 1
        yield from self.backend.force()
        self.db.clean_to_stable(key)

    def clean_all(self):
        for key in self.db.dirty_keys():
            yield from self.clean_page(key)

    # -- checkpoints -------------------------------------------------------------------

    def _maybe_checkpoint(self):
        if self.checkpoint_every <= 0:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            yield from self.checkpoint()
            self._since_checkpoint = 0

    def checkpoint(self):
        """Log the set of active transactions (a fuzzy checkpoint)."""
        record = encode_checkpoint(sorted(self.active))
        yield from self._log(record, "checkpoint")
        yield from self.backend.force()

    # -- restart recovery ----------------------------------------------------------------

    def restart_recovery(self, from_lsn: LSN = 1):
        """Rebuild the stable database from the log after a node crash.

        A forward scan classifies transactions (winners committed,
        losers everything else), replays winners' redo components in
        LSN order onto stable storage, and undoes any loser updates
        that page cleaning had already propagated.  Returns a summary
        dict (winners, losers, records scanned).

        ``from_lsn`` bounds the scan: media recovery replays from the
        dump's position instead of from the beginning (Section 5.3).
        """
        records = yield from self._collect_log_forward(from_lsn)
        winners: set[int] = set()
        losers: set[int] = set()
        for fields in records:
            tag = fields[0]
            if tag == "B":
                losers.add(int(fields[1]))
            elif tag == "C":
                txid = int(fields[1])
                winners.add(txid)
                losers.discard(txid)
            elif tag == "A":
                losers.add(int(fields[1]))
        # One forward pass determines, per key: the last writer, the
        # last *committed* value, and the value the key held before
        # each transaction first touched it.  The final state rule:
        #
        # * last writer is a winner  -> apply its value (redo);
        # * last writer is a loser   -> apply the last committed value
        #   seen in the scan, falling back to the loser's logged
        #   before-image (they agree under serial execution; the
        #   before-image covers media recovery where the committing
        #   update predates the scanned suffix), and if neither exists
        #   the key's stable contents were never contaminated.
        # Resolve partial rollbacks first: an update logged after a
        # savepoint that was later rolled back (P record) is void.
        sp_positions: dict[tuple[int, int], int] = {}
        txn_update_indices: dict[int, list[int]] = {}
        void: set[int] = set()
        for i, fields in enumerate(records):
            tag = fields[0]
            if tag in ("U", "R"):
                txn_update_indices.setdefault(int(fields[1]), []).append(i)
            elif tag == "S":
                txid, sp = int(fields[1]), int(fields[2])
                sp_positions[(txid, sp)] = len(
                    txn_update_indices.get(txid, []))
            elif tag == "P":
                txid, sp = int(fields[1]), int(fields[2])
                position = sp_positions.get((txid, sp), 0)
                indices = txn_update_indices.get(txid, [])
                void.update(indices[position:])
                del indices[position:]

        # last_value[key] = (value, txid, is_void): the key's last
        # update record, whether it survives, and who wrote it.
        last_value: dict[str, tuple[str, int, bool]] = {}
        last_committed: dict[str, str] = {}
        first_old: dict[tuple[int, str], str] = {}
        for i, fields in enumerate(records):
            tag = fields[0]
            if tag == "U":
                txid, key, old, new = (int(fields[1]), fields[2],
                                       fields[3], fields[4])
                first_old.setdefault((txid, key), old)
                last_value[key] = (new, txid, i in void)
            elif tag == "R":
                txid, key, new = int(fields[1]), fields[2], fields[3]
                last_value[key] = (new, txid, i in void)
            elif tag == "N":
                # a split undo component, logged because the page was
                # cleaned while the transaction was active
                txid, key, old = int(fields[1]), fields[2], fields[3]
                first_old.setdefault((txid, key), old)
        for i, fields in enumerate(records):
            if (fields[0] in ("U", "R") and i not in void
                    and int(fields[1]) in winners):
                key = fields[2]
                last_committed[key] = fields[4] if fields[0] == "U" else fields[3]
        for key, (value, txid, is_void) in last_value.items():
            if txid in winners and not is_void:
                self.db.stable[key] = value
                continue
            if key in last_committed:
                self.db.stable[key] = last_committed[key]
                continue
            old = first_old.get((txid, key))
            if old is not None:
                self.db.stable[key] = old
        self.active.clear()
        if self.undo_cache is not None:
            self.undo_cache.clear()
        # never reuse a transaction id that appears in the log: a new
        # transaction colliding with an old committed one would be
        # misclassified by a later recovery.
        seen_txids = {int(f[1]) for f in records if f[0] in "BCA"}
        if seen_txids:
            self._txids = itertools.count(max(seen_txids) + 1)
        return {
            "winners": len(winners),
            "losers": len(losers),
            "records_scanned": len(records),
        }

    def _collect_log_forward(self, from_lsn: LSN = 1):
        """Gather decoded records oldest-first."""
        raw = yield from self.backend.scan_backward()
        raw.reverse()
        return [decode(r.data) for r in raw
                if r.lsn >= from_lsn and _is_txn_record(r.data)]


def _is_txn_record(data: bytes) -> bool:
    return bool(data) and chr(data[0]) in "BURNCAKSP"
