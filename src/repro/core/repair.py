"""Repairing a replicated log after losing one copy (Section 5.3).

Among the recovery operations a space-management strategy must serve
is "the repair of a log when one redundant copy is lost": a log
server's disk dies, a replacement (empty) server joins, and the
client's records that lived on the dead server must be re-replicated
so every record is again on ``N`` servers.

:func:`repair` is that repair for one client, as a sans-IO procedure
(see :mod:`repro.core.procedure`): it merges interval lists from the
surviving servers, finds every LSN with fewer than ``N`` surviving
copies, fetches each from a holder, and hands them to the target with
one CopyLog + InstallCopies pair per epoch, lowest epoch first.
Install appends in LSN order and each epoch is above the last, so an
empty target ends up holding the records in ``(epoch, LSN)`` order —
exactly as if it had received them originally.

The repair is read-only on the survivors and append-only on the
target, so it can run concurrently with normal logging to *other*
servers; like client restart, it is driven by the (single) client or
by an operator acting for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ServerUnavailable
from .intervals import MergedIntervalMap
from .procedure import ACK, COPY, INSTALL, Call, Procedure, Step
from .records import Epoch, StoredRecord
from .recovery import fetch_record, gather


@dataclass(frozen=True, slots=True)
class RepairResult:
    """Outcome of one log-copy repair."""

    target_server: str
    records_copied: int
    bytes_copied: int
    lsns_repaired: tuple[int, ...]


def under_replicated_lsns(
    merged: MergedIntervalMap, copies: int
) -> list[int]:
    """LSNs whose winning version is on fewer than ``copies`` servers."""
    return [
        lsn for lsn in merged.lsns()
        if len(merged.servers_for(lsn)) < copies
    ]


def repair(survivors: Iterable[str], target: str, copies: int) -> Procedure:
    """Re-replicate the under-replicated records onto ``target``.

    ``survivors`` are the remaining servers (the lost one is simply
    absent); any of them that answers contributes its interval list.
    Records already on ``copies`` survivors are left alone.  Raises
    :class:`~repro.core.errors.NotEnoughServers` if some record has no
    reachable holder at all — that is data loss, which N-fold
    replication exists to make improbable — and
    :class:`~repro.core.errors.ServerUnavailable` if the target fails
    or refuses a call.
    """
    merged = MergedIntervalMap.merge((yield from gather(survivors, 1)))
    by_epoch: dict[Epoch, list[StoredRecord]] = {}
    for lsn in under_replicated_lsns(merged, copies):
        record = yield from fetch_record(merged.entry(lsn))
        by_epoch.setdefault(record.epoch, []).append(record)
    yield Step("repair.staged")

    copied: list[StoredRecord] = []
    for epoch in sorted(by_epoch):
        yield from _acked(Call(target, COPY, (epoch, tuple(by_epoch[epoch]))))
        yield Step("repair.copylog")
        yield from _acked(Call(target, INSTALL, (epoch,)))
        copied += by_epoch[epoch]
    return RepairResult(
        target_server=target,
        records_copied=len(copied),
        bytes_copied=sum(len(r.data) for r in copied),
        lsns_repaired=tuple(r.lsn for r in copied),
    )


def _acked(call: Call) -> Procedure:
    if (yield call) is not ACK:
        raise ServerUnavailable(call.server_id, f"{call.op} not acknowledged")
