"""The killable client process of the crash sweep's client phase.

``python -m repro.harness.clientworker`` runs one
:class:`~repro.rt.client.AsyncReplicatedLog` against real ``repro
serve`` daemons and journals every client-visible step to a
:class:`~repro.harness.oracle.History` file, so the harness knows
exactly what the client *believed* at the instant it was killed.
Three modes:

``--mode run``
    ET1-shaped workload (Section 4.1: several buffered WriteLogs, then
    one forced commit per transaction), with optional Section 5.3
    truncation rounds, ending with a fenced ownership handoff (a
    second client instance seizes the stream via ``takeover()`` and
    commits one more transaction — putting the ``client.handoff.*``
    sites on the enumerable protocol trace).  An injected crash plan
    (:mod:`repro.rt.clientfault`, environment variables
    ``REPRO_CLIENT_FAULT_PLAN`` / ``REPRO_CLIENT_FAULT_TRACE``) kills
    the process at an exact protocol point.

``--mode recover``
    The *second* OS process: runs the full Section 5.4 restart
    (interval-list merge, epoch bump, copy, guard, install), then
    observes the log (:func:`~repro.harness.oracle.observe`): a
    post-recovery transaction, then every LSN's final state by point
    reads and by a forward scan.

``--mode takeover``
    Like ``recover``, but via
    :meth:`~repro.rt.client.AsyncReplicatedLog.takeover` — the
    linearizable handoff that installs a durable fence before
    recovering, so it works even while the *first* process is still
    alive (merely partitioned) and writing.  The first process, once
    fenced, exits with status 3.

The journal is the History's JSON-lines form, one event per line
(``epoch``, ``intent``, ``lsn``, ``ack``, ``trunc-req``,
``trunc-ack``, ``observe`` — see :mod:`repro.harness.oracle`),
appended line-buffered.  Every promise line is emitted only *after*
the awaited call returned, so a SIGKILL can never leave a journaled
ack that the server side did not issue; the run, recover and takeover
journals of one stream concatenate into one history for
:func:`~repro.harness.oracle.check`.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..core.config import ReplicationConfig
from ..core.errors import LogError, LogFenced
from ..rt import clientfault
from ..rt.client import AsyncReplicatedLog
from .oracle import History, observe

#: exit status of a worker stopped by a fence (ownership handoff) —
#: distinct from crash-plan exits and from genuine failures.
EXIT_FENCED = 3


def parse_servers(spec: str) -> dict[str, tuple[str, int]]:
    """``"s1=127.0.0.1:7001,s2=127.0.0.1:7002"`` → address map."""
    servers: dict[str, tuple[str, int]] = {}
    for token in spec.split(","):
        sid, _, addr = token.strip().partition("=")
        host, _, port = addr.rpartition(":")
        servers[sid] = (host, int(port))
    return servers


def _payload(client_id: str, txn: int, i: int) -> bytes:
    """Unique, self-describing ~100-byte record (the ET1 record size)."""
    tag = f"{client_id}.{txn}.{i}.".encode()
    return tag + b"x" * max(0, 100 - len(tag))


async def _run_workload(args, history: History) -> None:
    servers = parse_servers(args.servers)
    config = ReplicationConfig(total_servers=args.m, copies=args.n,
                               delta=args.delta)
    # A server deliberately killed mid-case leaves in-flight futures
    # nobody retrieves; that is the scenario, not a worker bug.
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: None)
    # batch_bytes small enough that WriteLog streaming (site
    # client.flush.sent) actually triggers between forces.
    log = AsyncReplicatedLog(args.client_id, servers, config,
                             timeout=args.timeout, batch_bytes=256)
    await log.initialize()
    history.epoch(log)
    for txn in range(args.txns):
        for i in range(args.records_per_txn):
            await history.write(log, _payload(args.client_id, txn, i))
        await history.force(log)
        if args.truncate_every and (txn + 1) % args.truncate_every == 0:
            low = log.end_of_log() - config.delta
            if low > 1:
                await history.truncate(log, low)
    # Handoff tail: a second instance of the same stream seizes
    # ownership through the fenced takeover, then commits one more
    # transaction.  A kill inside any client.handoff.* seam leaves a
    # partially-installed fence the recover-mode restart must ride
    # over (its fresh epoch always exceeds any standing fence).
    taker = AsyncReplicatedLog(args.client_id, servers, config,
                               timeout=args.timeout, batch_bytes=256)
    await taker.takeover()
    history.epoch(taker)
    for i in range(args.records_per_txn):
        await history.write(taker, _payload(args.client_id, 9000, i))
    await history.force(taker)
    await taker.close()
    await log.close()


async def _run_recover(args, history: History, *,
                       takeover: bool = False) -> None:
    servers = parse_servers(args.servers)
    config = ReplicationConfig(total_servers=args.m, copies=args.n,
                               delta=args.delta)
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: None)
    log = AsyncReplicatedLog(args.client_id, servers, config,
                             timeout=args.timeout, batch_bytes=256)
    if takeover:
        await log.takeover()
    else:
        await log.initialize()
    history.epoch(log)
    await observe(log, history)
    await log.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.clientworker",
        description="crash-sweep client worker (run or recover mode)",
    )
    parser.add_argument("--servers", required=True,
                        help="s1=host:port,s2=host:port,...")
    parser.add_argument("--journal", required=True,
                        help="History file, JSON lines (appended)")
    parser.add_argument("--mode", choices=("run", "recover", "takeover"),
                        default="run")
    parser.add_argument("--client-id", default="sweep")
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--delta", type=int, default=4)
    parser.add_argument("--txns", type=int, default=4)
    parser.add_argument("--records-per-txn", type=int, default=5)
    parser.add_argument("--truncate-every", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=3.0)
    args = parser.parse_args(argv)

    injector = clientfault.install_from_env()
    history = History(args.journal)
    try:
        if args.mode == "run":
            asyncio.run(_run_workload(args, history))
        else:
            asyncio.run(_run_recover(args, history,
                                     takeover=args.mode == "takeover"))
    except LogFenced as exc:
        # Ownership moved on mid-workload: exit with a status the
        # harness can tell apart from ordinary failures.
        print(f"clientworker: {exc}", file=sys.stderr)
        return EXIT_FENCED
    except LogError as exc:
        print(f"clientworker: {exc}", file=sys.stderr)
        return 1
    finally:
        history.close()
        if injector is not None:
            injector.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
