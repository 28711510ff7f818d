"""Log backends: one interface over the direct and simulated logs.

The recovery manager (and everything above it) speaks a tiny
generator-based interface so the same transaction code runs over

* :class:`DirectLogBackend` — the in-process
  :class:`~repro.core.replicated_log.ReplicatedLog` (instant, for unit
  tests and algorithm-level experiments); and
* :class:`SimLogBackend` — the network
  :class:`~repro.client.log_client.SimLogClient` (for the timing
  experiments).

All methods are generators to be driven with ``yield from`` inside a
simulation process; the direct backend simply never yields.
"""

from __future__ import annotations

from typing import Protocol

from ..core.records import LogRecord, LSN
from ..core.replicated_log import ReplicatedLog
from .log_client import SimLogClient


class LogBackend(Protocol):
    """What the recovery manager needs from a log."""

    def log(self, data: bytes, kind: str = "data"): ...
    def force(self): ...
    def read(self, lsn: LSN): ...
    def end_of_log(self) -> LSN: ...
    def scan_backward(self, from_lsn: LSN | None = None): ...


class DirectLogBackend:
    """Adapter: core ReplicatedLog behind the generator interface."""

    def __init__(self, replicated_log: ReplicatedLog):
        self.replicated_log = replicated_log

    def log(self, data: bytes, kind: str = "data"):
        return self.replicated_log.write(data, kind)
        yield  # pragma: no cover - makes this a generator

    def force(self):
        return None
        yield  # pragma: no cover

    def read(self, lsn: LSN):
        return self.replicated_log.read(lsn)
        yield  # pragma: no cover

    def end_of_log(self) -> LSN:
        return self.replicated_log.end_of_log()

    def scan_backward(self, from_lsn: LSN | None = None):
        """The present records, newest-first."""
        return list(self.replicated_log.iter_backward(from_lsn))
        yield  # pragma: no cover

    def crash(self) -> None:
        self.replicated_log.crash()

    def restart(self):
        self.replicated_log.initialize()
        return None
        yield  # pragma: no cover


class SimLogBackend:
    """Adapter: SimLogClient behind the same interface."""

    def __init__(self, client: SimLogClient):
        self.client = client

    # These return the client's generator directly instead of
    # delegating via ``yield from``: a wrapper frame here would sit on
    # every resumption of every workload process.

    def log(self, data: bytes, kind: str = "data"):
        return self.client.log(data, kind)

    def force(self):
        return self.client.force()

    def read(self, lsn: LSN):
        return self.client.read(lsn)

    def end_of_log(self) -> LSN:
        return self.client.end_of_log()

    def crash(self) -> None:
        self.client.crash()

    def restart(self):
        yield from self.client.restart()

    def scan_backward(self, from_lsn: LSN | None = None):
        """The present records, newest-first, read one by one."""
        from ..core.errors import LSNNotWritten, RecordNotPresent

        records: list[LogRecord] = []
        start = from_lsn if from_lsn is not None else self.client.end_of_log()
        for lsn in range(start, 0, -1):
            try:
                record = yield from self.client.read(lsn)
            except (RecordNotPresent, LSNNotWritten):
                continue
            records.append(record)
        return records
