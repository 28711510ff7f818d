"""Client initialization (crash recovery) for replicated logs.

Section 3.1.2 and the CopyLog/InstallCopies calls of Section 4.2 define
the procedure a client node runs at restart:

1. gather interval lists from at least ``M − N + 1`` log servers and
   merge them, keeping the highest-epoch entry per LSN;
2. obtain a new epoch number from the replicated identifier generator;
3. copy the most recent ``δ`` log records — the only ones that can have
   been partially written — to ``N`` servers under the new epoch,
   preserving their present flags;
4. append ``δ`` guard records marked *not present* at the next ``δ``
   LSNs, so any partially written record at those LSNs loses every
   future interval-list merge to the higher-epoch guard; and
5. atomically install the staged copies with InstallCopies.

The procedure is restartable: a crash at any point leaves only staged
(uninstalled) records or a fully installed higher epoch, and the next
restart repeats the procedure with a yet-higher epoch.

Every step is stated here once, as a sans-IO procedure (see
:mod:`repro.core.procedure`): :func:`gather`, :func:`fetch_record`,
:func:`recover` and their composition :func:`restart`; plus
:func:`install_fence` and :func:`takeover`, the linearizable handoff
that fences a possibly-live previous owner before recovering.  The
simulated and asyncio clients drive the same generators;
:func:`gather_interval_lists` and :func:`perform_recovery` drive them
with direct calls on :class:`~repro.core.ports.ServerPort` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable

from .config import ReplicationConfig
from .errors import NotEnoughServers, ServerUnavailable, StaleEpoch
from .intervals import MergedEntry, MergedIntervalMap, ServerIntervals
from .ports import ServerPort, port_performer
from .procedure import (
    ACK,
    COPY,
    FENCE,
    INSTALL,
    INTERVAL_LIST,
    READ,
    Call,
    Procedure,
    Step,
    run,
)
from .records import Epoch, LSN, StoredRecord
from .retry import RetryPolicy, retry_call


@dataclass(frozen=True, slots=True)
class RecoveryResult:
    """Outcome of client initialization."""

    merged: MergedIntervalMap
    epoch: Epoch
    #: the LSN the next WriteLog will assign (merged high + 1, where the
    #: merged map already includes the guard records).
    next_lsn: LSN
    #: servers that hold the installed copies; a good initial write set.
    write_set: tuple[str, ...]
    #: the records (copies, then guards) rewritten under the new epoch.
    staged: tuple[StoredRecord, ...]
    #: servers that contributed interval lists.
    init_servers: tuple[str, ...]
    #: servers that acknowledged the takeover fence (empty on a restart).
    fenced_on: tuple[str, ...] = ()

    @property
    def records_copied(self) -> int:
        """Number of records (copies + guards) rewritten during recovery."""
        return len(self.staged)


# -- the procedures ------------------------------------------------------


def gather(servers: Iterable[str], quorum: int) -> Procedure:
    """Collect interval lists from every server in ``servers`` that answers.

    Raises :class:`NotEnoughServers` when fewer than ``quorum``
    (``M − N + 1``) do — the condition under which the paper says
    client initialization is unavailable.
    """
    lists: list[ServerIntervals] = []
    for server_id in servers:
        try:
            intervals = yield Call(server_id, INTERVAL_LIST)
        except ServerUnavailable:
            continue
        if isinstance(intervals, tuple):
            lists.append(ServerIntervals(server_id, intervals))
    if len(lists) < quorum:
        raise NotEnoughServers(
            f"client initialization needs interval lists from {quorum} "
            f"servers; only {len(lists)} responded"
        )
    return lists


def fetch_record(entry: MergedEntry) -> Procedure:
    """Fetch the winning copy of ``entry.lsn`` from a server holding it.

    Shared by ReadLog and the restart copy step.  A holder's answer is
    accepted only if it carries the LSN at an epoch no lower than the
    merged map's winner: a lower-epoch image is a stale copy the merge
    already outvoted, and must be neither returned nor re-stamped under
    a new epoch.
    """
    lsn, epoch = entry.lsn, entry.epoch
    last_error: ServerUnavailable | None = None
    for server_id in entry.servers:
        try:
            records = yield Call(server_id, READ, (lsn,))
        except ServerUnavailable as exc:
            last_error = exc
            continue
        if isinstance(records, tuple):
            for record in records:
                if record.lsn == lsn and record.epoch >= epoch:
                    return record
    raise NotEnoughServers(
        f"no reachable server stores LSN {lsn} at epoch {epoch}"
    ) from last_error


def install_fence(servers: Iterable[str], quorum: int,
                  epoch: Epoch) -> Procedure:
    """Durably fence the stream at ``epoch`` on enough servers.

    Tries *every* server (the wider the fence, the sooner the old
    owner hits it) but requires acknowledgment from ``quorum`` — the
    ``M − N + 1`` floor that guarantees intersection with every
    possible write set.  A server refusing because a higher epoch
    already owns the stream is not a per-server failure: the driver
    throws :class:`~repro.core.errors.LogFenced` and it propagates.
    """
    fenced: list[str] = []
    for server_id in servers:
        try:
            reply = yield Call(server_id, FENCE, (epoch,))
        except ServerUnavailable:
            continue
        if reply is ACK:
            fenced.append(server_id)
            # The first of these: the fence holds on one server only;
            # the old owner is already locked out of write sets that
            # include it, but not yet out of all of them.
            yield Step("handoff.fence.ack")
    if len(fenced) < quorum:
        raise NotEnoughServers(
            f"fence install needs {quorum} servers to guarantee "
            f"write-set intersection; only {len(fenced)} acknowledged"
        )
    return tuple(fenced)


def recover(
    merged: MergedIntervalMap,
    init_servers: tuple[str, ...],
    new_epoch: Epoch,
    copies: int,
    delta: int,
    install_order: Iterable[str],
) -> Procedure:
    """Steps 3–5 of the restart procedure: copy, guard, install.

    ``install_order`` lists the servers to try as the ``N`` copy
    targets, most preferred first (a client staying with the servers it
    used before the crash keeps interval lists short).  It is consumed
    only once the copies are staged.
    """
    high = merged.high_lsn() or 0

    # The most recent δ records that exist, present flag preserved
    # (with fewer than δ records in the log, all of them), then δ
    # not-present guards above them.
    staged_list: list[StoredRecord] = []
    for lsn in range(max(1, high - delta + 1), high + 1):
        entry = merged.entry(lsn)
        if entry is None:
            continue
        record = yield from fetch_record(entry)
        staged_list.append(StoredRecord(
            lsn=lsn, epoch=new_epoch, present=record.present,
            data=record.data, kind=record.kind,
        ))
    staged_list += [
        StoredRecord(lsn=high + i, epoch=new_epoch, present=False, kind="guard")
        for i in range(1, delta + 1)
    ]
    staged = tuple(staged_list)
    yield Step("recovery.staged")

    # Stage everything on a server, then install.  A server failing at
    # either call is skipped entirely; records staged there are never
    # installed (the epoch is never reused, so the remnants are inert).
    installed: list[str] = []
    for server_id in install_order:
        if len(installed) >= copies:
            break
        try:
            if (yield Call(server_id, COPY, (new_epoch, staged))) is not ACK:
                continue
            yield Step("recovery.copylog")
            if (yield Call(server_id, INSTALL, (new_epoch,))) is not ACK:
                continue
        except ServerUnavailable:
            continue
        yield Step("recovery.install")
        installed.append(server_id)
    if len(installed) < copies:
        raise NotEnoughServers(
            f"recovery could install copies on only {len(installed)} "
            f"servers; {copies} required"
        )
    yield Step("recovery.commit")

    for record in staged:
        for server_id in installed:
            merged.note(record.lsn, new_epoch, server_id)
    return RecoveryResult(
        merged=merged,
        epoch=new_epoch,
        next_lsn=(merged.high_lsn() or 0) + 1,
        write_set=tuple(installed),
        staged=staged,
        init_servers=init_servers,
    )


def _above(new_epoch: Epoch, floor: Epoch) -> Epoch:
    if new_epoch <= floor:
        raise StaleEpoch("generator", new_epoch, floor)
    return new_epoch


def restart(
    config: ReplicationConfig,
    new_epoch: Procedure,
    gather_order: Iterable[str],
    install_order: Iterable[str],
) -> Procedure:
    """The whole client restart procedure of Section 3.1.2.

    ``new_epoch`` is the NewID step as a sub-procedure returning the
    fresh epoch (:func:`repro.core.epoch.new_id`, or
    :func:`repro.core.epoch.issued_by` for an in-process generator).
    After this returns, every earlier WriteLog appears to have happened
    atomically: a partially written record either reached the merged
    list (and is now on ``N`` servers) or is permanently masked by a
    higher-epoch guard.
    """
    lists = yield from gather(gather_order, config.init_quorum)
    yield Step("init.lists")
    merged = MergedIntervalMap.merge(lists)
    yield Step("init.merge")
    epoch = _above((yield from new_epoch), merged.highest_epoch())
    return (yield from recover(
        merged, tuple(r.server_id for r in lists), epoch,
        config.copies, config.delta, install_order,
    ))


def takeover(
    config: ReplicationConfig,
    new_epoch: Procedure,
    gather_order: Iterable[str],
    fence_order: Iterable[str],
    install_order: Iterable[str],
) -> Procedure:
    """Seize the stream from a possibly-live writer, then recover.

    :func:`restart` assumes the previous owner is *gone*.  Here, after
    gathering interval lists and drawing a fresh epoch exactly as a
    restart would, a fence at the new epoch is installed on at least
    ``M − N + 1`` servers *before* recovery runs; every N-server write
    set intersects that fence set, so no ForceLog the old owner issues
    afterwards can be acknowledged.

    The handoff point is the fence install, so the interval lists
    recovery runs against are gathered (again) **after** it — the first
    gather only seeds the epoch floor.  Lists read before the fence
    could miss a force the old owner got acknowledged in the gap, and
    recovery would drop an acknowledged record; once the fence holds,
    no new ack can form, and every already-acked record sits on N
    servers, at least one of which is in any ``M − N + 1`` gather.
    """
    gather_order = tuple(gather_order)
    lists = yield from gather(gather_order, config.init_quorum)
    yield Step("handoff.lists")
    floor = MergedIntervalMap.merge(lists).highest_epoch()
    epoch = _above((yield from new_epoch), floor)
    yield Step("handoff.epoch")
    fenced_on = yield from install_fence(fence_order, config.init_quorum, epoch)
    yield Step("handoff.fenced")
    lists = yield from gather(gather_order, config.init_quorum)
    result = yield from recover(
        MergedIntervalMap.merge(lists), tuple(r.server_id for r in lists),
        epoch, config.copies, config.delta, install_order,
    )
    return replace(result, fenced_on=fenced_on)


# -- the direct driver: plain calls on ServerPort objects ----------------


def gather_interval_lists(
    ports: dict[str, ServerPort], client_id: str, quorum: int,
) -> list[ServerIntervals]:
    """:func:`gather` over every port, in the dict's order."""
    return run(gather(tuple(ports), quorum), port_performer(ports, client_id))


def gather_interval_lists_with_retry(
    ports: dict[str, ServerPort],
    client_id: str,
    quorum: int,
    policy: "RetryPolicy | None" = None,
    rng: random.Random | None = None,
    sleep=None,
    on_retry=None,
) -> list[ServerIntervals]:
    """:func:`gather_interval_lists`, retried through transient outages.

    A client restarting *during* churn may find fewer than ``M − N + 1``
    servers up at the instant it asks; retrying with capped backoff
    rides out repair windows instead of failing the whole restart.
    ``on_retry(attempt)`` fires between attempts (tests use it to bring
    servers back; simulations advance their clock in ``sleep``).
    """
    policy = policy if policy is not None else RetryPolicy()
    rng = rng if rng is not None else random.Random(0)
    return retry_call(
        lambda: gather_interval_lists(ports, client_id, quorum),
        policy, rng, retry_on=(NotEnoughServers,),
        sleep=sleep, on_retry=on_retry,
    )


def install_preference(
    servers: Iterable[str], preferred: Iterable[str],
) -> list[str]:
    """``preferred`` first, then the rest of ``servers`` in their order."""
    preferred = list(preferred)
    return preferred + [s for s in servers if s not in preferred]


def perform_recovery(
    client_id: str,
    ports: dict[str, ServerPort],
    interval_lists: list[ServerIntervals],
    new_epoch: Epoch,
    copies: int,
    delta: int,
    preferred_servers: tuple[str, ...] = (),
) -> RecoveryResult:
    """:func:`recover` over ``ports`` and return the new state.

    ``interval_lists`` must already satisfy the init quorum (see
    :func:`gather_interval_lists`).  ``preferred_servers`` biases the
    choice of the ``N`` copy targets.
    """
    return run(
        recover(
            MergedIntervalMap.merge(interval_lists),
            tuple(r.server_id for r in interval_lists),
            new_epoch, copies, delta,
            install_preference(sorted(ports), preferred_servers),
        ),
        port_performer(ports, client_id),
    )
