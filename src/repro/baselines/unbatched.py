"""Baseline: one RPC per log record (no grouping).

Section 4.1's strawman: "If each log record were written to log servers
with individual remote procedure calls (RPCs) each log server would
have to process about 2400 incoming or outgoing messages per second, a
load that is too high to achieve easily on moderate power processors."

:class:`UnbatchedBackend` wraps a :class:`~repro.client.log_client.SimLogClient`
and forces after *every* record, producing exactly that per-record
request/ack pattern.  The capacity and ablation experiments compare its
message rates and CPU consumption against the grouped interface.
"""

from __future__ import annotations

from ..client.log_client import SimLogClient
from ..core.records import LSN


class UnbatchedBackend:
    """Backend adapter that defeats grouping: force per record."""

    def __init__(self, client: SimLogClient):
        self.client = client

    def log(self, data: bytes, kind: str = "data"):
        lsn = yield from self.client.log(data, kind)
        yield from self.client.force()
        return lsn

    def force(self):
        yield from self.client.force()

    def read(self, lsn: LSN):
        record = yield from self.client.read(lsn)
        return record

    def end_of_log(self) -> LSN:
        return self.client.end_of_log()

    def crash(self) -> None:
        self.client.crash()

    def restart(self):
        yield from self.client.restart()

    def scan_backward(self, from_lsn: LSN | None = None):
        from ..client.backends import SimLogBackend

        records = yield from SimLogBackend(self.client).scan_backward(from_lsn)
        return records
