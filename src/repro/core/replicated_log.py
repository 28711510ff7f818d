"""The replicated-log abstract type of Section 3.1.

A :class:`ReplicatedLog` is "an append only sequence of records"
identified by increasing Log Sequence Numbers, used by exactly one
transaction-processing node.  It offers the three operations the paper
defines —

* :meth:`write` (WriteLog): append a record, returning its LSN;
* :meth:`read` (ReadLog): fetch the record with a given LSN, signalling
  an exception for LSNs never returned by WriteLog; and
* :meth:`end_of_log` (EndOfLog): the LSN of the most recent record —

plus the iteration helpers a recovery manager needs in practice.

Replication follows Section 3.1.2: every record is written to ``N`` of
the ``M`` servers, reads use the client's cached merged-interval map to
contact a single server, and :meth:`initialize` performs the restart
procedure that makes interrupted writes atomic (see
:mod:`repro.core.recovery`).
"""

from __future__ import annotations

from typing import Iterator, Protocol

from .config import ReplicationConfig
from .epoch import issued_by
from .errors import (
    LSNNotWritten,
    NotEnoughServers,
    NotInitialized,
    RecordNotPresent,
    ServerUnavailable,
)
from .intervals import MergedIntervalMap
from .ports import ServerPort, port_performer
from .procedure import Procedure, run
from .records import Epoch, LogRecord, LSN
from .recovery import fetch_record, install_preference, restart


class EpochSource(Protocol):
    """Anything that can issue strictly increasing epoch numbers.

    Normally a :class:`~repro.core.epoch.ReplicatedIdGenerator`; tests
    may use :class:`~repro.core.epoch.LocalIdGenerator`.
    """

    def new_id(self) -> int: ...


class ReplicatedLog:
    """Client-side replicated log over ``M`` servers, ``N`` copies each."""

    def __init__(
        self,
        client_id: str,
        ports: dict[str, ServerPort],
        config: ReplicationConfig,
        epoch_source: EpochSource,
    ):
        if len(ports) != config.total_servers:
            raise NotEnoughServers(
                f"configuration names M={config.total_servers} servers "
                f"but {len(ports)} ports were supplied"
            )
        self.client_id = client_id
        self.config = config
        self._ports = dict(ports)
        self._epoch_source = epoch_source
        # Volatile, rebuilt by initialize():
        self._merged: MergedIntervalMap | None = None
        self._epoch: Epoch = 0
        self._next_lsn: LSN = 1
        self._write_set: list[str] = []
        # Bookkeeping for experiments:
        self.writes_performed = 0
        self.reads_performed = 0
        self.recoveries_performed = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def initialized(self) -> bool:
        return self._merged is not None

    def initialize(self) -> None:
        """Run the client restart procedure of Section 3.1.2.

        Gathers interval lists from at least ``M − N + 1`` servers,
        merges them, obtains a fresh epoch, copies the last ``δ``
        records under that epoch, and appends ``δ`` not-present guard
        records.  After this returns, every earlier WriteLog appears to
        have happened atomically: a partially written record either
        reached the merged list (and is now on ``N`` servers) or is
        permanently masked by a higher-epoch guard.
        """
        result = self._run(restart(
            self.config,
            issued_by(self._epoch_source),
            gather_order=tuple(self._ports),
            install_order=install_preference(sorted(self._ports), self._write_set),
        ))
        self._merged = result.merged
        self._epoch = result.epoch
        self._next_lsn = result.next_lsn
        self._write_set = list(result.write_set)
        self.recoveries_performed += 1

    def crash(self) -> None:
        """Simulate a client crash: all volatile state is lost.

        The caller must :meth:`initialize` again before using the log.
        """
        self._merged = None
        self._epoch = 0
        self._next_lsn = 1
        # _write_set intentionally survives only as a *preference* for
        # the next initialize(); a real client would rediscover servers,
        # and keeping the hint models "clients should attempt to perform
        # consecutive writes to the same servers".

    def _run(self, procedure: Procedure):
        """Drive a core procedure with direct calls on the ports."""
        return run(procedure, port_performer(self._ports, self.client_id))

    def _require_init(self) -> MergedIntervalMap:
        if self._merged is None:
            raise NotInitialized(
                "the replicated log must be initialized before use"
            )
        return self._merged

    # -- the three Section 3.1 operations ---------------------------------

    def write(self, data: bytes, kind: str = "data") -> LSN:
        """WriteLog: append ``data``; return its LSN.

        The record is sent to ``N`` servers.  If a server in the write
        set fails, the client switches to another server ("a client can
        switch servers when necessary"), creating a new interval there.
        If fewer than ``N`` servers in total accept the record the
        write is incomplete: :class:`NotEnoughServers` is raised and
        the log must be re-initialized before further use, exactly as a
        real client node would restart.
        """
        merged = self._require_init()
        lsn = self._next_lsn
        succeeded: list[str] = []
        candidates = install_preference(sorted(self._ports), self._write_set)
        for server_id in candidates:
            if len(succeeded) >= self.config.copies:
                break
            try:
                self._ports[server_id].server_write_log(
                    self.client_id, lsn, self._epoch, True, data, kind
                )
            except ServerUnavailable:
                continue
            succeeded.append(server_id)
        if len(succeeded) < self.config.copies:
            self._merged = None  # force re-initialization
            raise NotEnoughServers(
                f"WriteLog reached only {len(succeeded)} of "
                f"{self.config.copies} servers for LSN {lsn}"
            )
        self._write_set = succeeded
        for server_id in succeeded:
            merged.note(lsn, self._epoch, server_id)
        self._next_lsn = lsn + 1
        self.writes_performed += 1
        return lsn

    def read(self, lsn: LSN) -> LogRecord:
        """ReadLog: return the record written with LSN ``lsn``.

        Signals :class:`LSNNotWritten` for LSNs beyond the end of the
        log (or below 1) and :class:`RecordNotPresent` for guard
        records, which no WriteLog ever returned.  Uses the cached
        merged map to contact a single server; if that server has
        failed, the other servers holding the record are tried.
        """
        merged = self._require_init()
        entry = merged.entry(lsn)
        if entry is None:
            raise LSNNotWritten(lsn)
        stored = self._run(fetch_record(entry))
        self.reads_performed += 1
        if not stored.present:
            raise RecordNotPresent(lsn)
        return stored.to_log_record()

    def end_of_log(self) -> LSN:
        """EndOfLog: "the high value in the merged interval list".

        Returns 0 for an empty log.  Note the paper's definition: guard
        records written during recovery count, so the value can exceed
        :meth:`last_present_lsn`.
        """
        merged = self._require_init()
        return merged.high_lsn() or 0

    # -- convenience operations -------------------------------------------

    def last_present_lsn(self) -> LSN | None:
        """Highest LSN whose record is readable (skips guards)."""
        merged = self._require_init()
        for lsn in range(self.end_of_log(), 0, -1):
            if lsn not in merged:
                continue
            try:
                self.read(lsn)
            except RecordNotPresent:
                continue
            return lsn
        return None

    def iter_backward(self, from_lsn: LSN | None = None) -> Iterator[LogRecord]:
        """Yield present records from ``from_lsn`` (default: end) down to 1.

        Not-present records and merge gaps are skipped — this is the
        scan order a recovery manager uses to undo and redo work.
        """
        merged = self._require_init()
        start = from_lsn if from_lsn is not None else self.end_of_log()
        for lsn in range(start, 0, -1):
            if lsn not in merged:
                continue
            try:
                yield self.read(lsn)
            except RecordNotPresent:
                continue

    def iter_forward(
        self, from_lsn: LSN = 1, to_lsn: LSN | None = None
    ) -> Iterator[LogRecord]:
        """Yield present records in LSN order over ``[from_lsn, to_lsn]``."""
        merged = self._require_init()
        end = to_lsn if to_lsn is not None else self.end_of_log()
        for lsn in range(from_lsn, end + 1):
            if lsn not in merged:
                continue
            try:
                yield self.read(lsn)
            except RecordNotPresent:
                continue

    @property
    def current_epoch(self) -> Epoch:
        return self._epoch

    @property
    def write_set(self) -> tuple[str, ...]:
        """The ``N`` servers currently receiving this client's records."""
        return tuple(self._write_set)
