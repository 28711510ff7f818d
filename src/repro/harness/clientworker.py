"""The killable client process of the crash sweep.

``python -m repro.harness.clientworker`` runs the sweeps' one client
workload (:func:`~repro.harness.sweep.run_workload`, at
:data:`~repro.harness.sweep.SWEEP_CONFIG`) against real ``repro
serve`` daemons and journals every client-visible step to a
:class:`~repro.harness.oracle.History` file, so the harness knows
exactly what the client *believed* at the instant it was killed.
Two modes:

``--mode run``
    The workload: ``--txns`` ET1 transactions (§4.1), a bulk
    transaction that streams WriteLogs, a §5.3 truncation, and a
    fenced ownership handoff to a second client instance.  An injected
    crash plan (:mod:`repro.rt.clientfault`, environment variables
    ``REPRO_CLIENT_FAULT_PLAN`` / ``REPRO_CLIENT_FAULT_TRACE``) kills
    the process at an exact protocol point; this is how
    :func:`~repro.harness.sweep.run_case` arms a client ``exit`` or
    ``sigkill`` spec, whose fault is the process death itself.  The
    restarts that follow run in the harness, each by a fresh client.

``--mode takeover``
    The *second* OS process of a live handoff: runs
    :meth:`~repro.rt.client.AsyncReplicatedLog.takeover` — the
    linearizable handoff that installs a durable fence before the
    Section 5.4 restart, so it works even while the *first* process
    is still alive (merely partitioned) and writing — then observes
    the log (:func:`~repro.harness.oracle.observe`).  The first
    process, once fenced, exits with status 3.

The journal is the History's JSON-lines form, one event per line
(``epoch``, ``intent``, ``lsn``, ``ack``, ``trunc-req``,
``trunc-ack``, ``observe`` — see :mod:`repro.harness.oracle`),
appended line-buffered.  Every promise line is emitted only *after*
the awaited call returned, so a SIGKILL can never leave a journaled
ack that the server side did not issue; the journals of one stream
concatenate into one history for :func:`~repro.harness.oracle.check`.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..core.errors import LogError, LogFenced
from ..rt import clientfault
from .oracle import History, observe
from .sweep import (
    CLIENT_ID,
    SWEEP_CONFIG,
    SWEEP_TXNS,
    Run,
    run_workload,
    sweep_client,
)

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


async def _run_takeover(servers: dict, history: History) -> None:
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: None)
    log = sweep_client(servers, CLIENT_ID, SWEEP_CONFIG)
    try:
        await log.takeover()
        history.epoch(log)
        await observe(log, history)
    finally:
        await log.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.clientworker",
        description="crash-sweep client worker (run or takeover)",
    )
    parser.add_argument("--servers", required=True,
                        help="s1=host:port,s2=host:port,...")
    parser.add_argument("--journal", required=True,
                        help="History file, JSON lines (appended)")
    parser.add_argument("--mode", choices=("run", "takeover"),
                        default="run")
    parser.add_argument("--txns", type=int, default=SWEEP_TXNS,
                        help="ET1 transactions of a run")
    args = parser.parse_args(argv)

    servers = parse_servers(args.servers)
    injector = clientfault.install_from_env()
    history = History(args.journal)
    try:
        if args.mode == "run":
            asyncio.run(run_workload(servers, CLIENT_ID, SWEEP_CONFIG,
                                     Run(history), args.txns))
        else:
            asyncio.run(_run_takeover(servers, history))
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
