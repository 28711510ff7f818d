"""The killable client process of the crash sweep's client phase.

``python -m repro.harness.clientworker`` runs one
:class:`~repro.rt.client.AsyncReplicatedLog` against real ``repro
serve`` daemons and journals every protocol step to a line-buffered
file, so the harness knows exactly what the client *believed* at the
instant it was killed.  Two modes:

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
    (interval-list merge, epoch bump, copy, guard, install), dumps
    every LSN's final state, then proves the log is still live with a
    post-recovery transaction.

``--mode takeover``
    Like ``recover``, but via
    :meth:`~repro.rt.client.AsyncReplicatedLog.takeover` — the
    linearizable handoff that installs a durable fence before
    recovering, so it works even while the *first* process is still
    alive (merely partitioned) and writing.  The first process, once
    fenced, journals ``FENCED`` and exits with status 3.

Journal grammar (one record per line, hex-encoded payloads)::

    EPOCH <epoch>            initialize() finished with this epoch
    ATTEMPT <seq> <hex>      about to write payload (no promise)
    LSN <seq> <lsn>          the write was assigned this LSN
    ACK <high>               an explicit force acked through <high>
    TRUNCREQ <low>           about to request truncation (no promise)
    TRUNC <low>              a truncation below <low> was acknowledged
    FENCED                   a server refused us: ownership moved on
    RECOVERED <epoch> <high> (recover) restart done
    TAKEOVER <epoch> <high>  (takeover) fenced handoff done
    FINAL <lsn> 1 <hex>      (recover) present record
    FINAL <lsn> 0            (recover) not-present (guard) record
    FINAL <lsn> -            (recover) unreadable / truncated away
    POST <lsn> <hex>         (recover) post-recovery write
    POSTACK <high>           (recover) post-recovery force acked
    DONE                     the workload ran to completion

The journal is written with ``buffering=1`` and every promise line is
emitted only *after* the awaited call returned, so a SIGKILL can never
leave a journaled ack that the server side did not issue.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..core.config import ReplicationConfig
from ..core.errors import LogError, LogFenced, RecordNotPresent
from ..rt import clientfault
from ..rt.client import AsyncReplicatedLog

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


async def _run_workload(args, say) -> None:
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
    say(f"EPOCH {log.current_epoch}")
    seq = 0
    for txn in range(args.txns):
        for i in range(args.records_per_txn):
            seq += 1
            data = _payload(args.client_id, txn, i)
            say(f"ATTEMPT {seq} {data.hex()}")
            lsn = await log.write(data)
            say(f"LSN {seq} {lsn}")
        high = await log.force()
        say(f"ACK {high}")
        if args.truncate_every and (txn + 1) % args.truncate_every == 0:
            low = log.end_of_log() - config.delta
            if low > 1:
                # Intent first: a kill mid-truncation may leave the
                # servers already reclaimed with no TRUNC ack journaled.
                say(f"TRUNCREQ {low}")
                await log.truncate(low)
                say(f"TRUNC {low}")
    # Handoff tail: a second instance of the same stream seizes
    # ownership through the fenced takeover, then commits one more
    # transaction.  A kill inside any client.handoff.* seam leaves a
    # partially-installed fence the recover-mode restart must ride
    # over (its fresh epoch always exceeds any standing fence).
    taker = AsyncReplicatedLog(args.client_id, servers, config,
                               timeout=args.timeout, batch_bytes=256)
    await taker.takeover()
    say(f"EPOCH {taker.current_epoch}")
    for i in range(args.records_per_txn):
        seq += 1
        data = _payload(args.client_id, 9000, i)
        say(f"ATTEMPT {seq} {data.hex()}")
        lsn = await taker.write(data)
        say(f"LSN {seq} {lsn}")
    say(f"ACK {await taker.force()}")
    say("DONE")
    await taker.close()
    await log.close()


async def _run_recover(args, say, *, takeover: bool = False) -> None:
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
    high = log.end_of_log()
    verb = "TAKEOVER" if takeover else "RECOVERED"
    say(f"{verb} {log.current_epoch} {high}")
    for lsn in range(1, high + 1):
        try:
            record = await log.read(lsn)
        except RecordNotPresent:
            say(f"FINAL {lsn} 0")
            continue
        except LogError:
            say(f"FINAL {lsn} -")
            continue
        say(f"FINAL {lsn} 1 {record.data.hex()}")
    # Liveness: the recovered log still accepts a transaction.
    for i in range(2):
        data = _payload(args.client_id, 10_000, i)
        lsn = await log.write(data)
        say(f"POST {lsn} {data.hex()}")
    say(f"POSTACK {await log.force()}")
    say("DONE")
    await log.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.clientworker",
        description="crash-sweep client worker (run or recover mode)",
    )
    parser.add_argument("--servers", required=True,
                        help="s1=host:port,s2=host:port,...")
    parser.add_argument("--journal", required=True,
                        help="line-buffered journal file (appended)")
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
    journal = open(args.journal, "a", buffering=1)

    def say(line: str) -> None:
        journal.write(line + "\n")

    try:
        if args.mode == "run":
            asyncio.run(_run_workload(args, say))
        else:
            asyncio.run(_run_recover(args, say,
                                     takeover=args.mode == "takeover"))
    except LogFenced as exc:
        # Ownership moved on mid-workload: journal the observation so
        # the harness can prove the old writer *stopped*, and exit with
        # a status it can tell apart from ordinary failures.
        say("FENCED")
        print(f"clientworker: {exc}", file=sys.stderr)
        return EXIT_FENCED
    except LogError as exc:
        print(f"clientworker: {exc}", file=sys.stderr)
        return 1
    finally:
        journal.close()
        if injector is not None:
            injector.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
