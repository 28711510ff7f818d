"""Command-line interface: ``python -m repro <command>``.

A thin front-end so the paper's results can be regenerated without
writing code.  Each row of :data:`repro.paper.EXPERIMENTS` is one
command, printing what ``benchmarks/bench_paper.py`` checks:

* ``availability`` (E1), ``monte-carlo`` (E2) — Figure 3-4;
* ``capacity`` (E3), ``target-load`` (E4) — Section 4.1;
* ``prototype`` (E5) — the Section 5.6 comparison;
* ``figures`` (E6) — the Figures 3-2/3-3 server states;
* ``append-forest`` (E7) — Figures 4-2/4-3;
* ``generator`` (E8) — Appendix I;
* ``degraded`` (E9), ``restart-latency`` (E10), ``churn`` (E11);
* ``grouping``, ``nvram``, ``splitting``, ``assignment``,
  ``replication``, ``space``, ``multicast``, ``commit``, ``sweep`` —
  the ablations A1–A9.

The real runtime has its own commands:

* ``python -m repro serve``         — run one real log-server daemon;
* ``python -m repro loadgen``       — drive ET1 load at a real cluster;
* ``python -m repro stats``         — query a daemon's counters;
* ``python -m repro ring``          — consistent-hash placement directory;
* ``python -m repro crashsweep``    — crash-point durability sweep.

Installed as the ``repro`` console script (``pip install -e .``).
"""

from __future__ import annotations

import argparse
import sys

from .paper import EXPERIMENTS
from .tables import format_table

# Each subcommand imports what it runs when it runs (``repro.paper``
# loads nothing beyond ``repro.core`` at import): a ``repro serve``
# daemon then loads the runtime and nothing of the simulator, the
# analysis or the experiment harness.


def _cmd_paper(args: argparse.Namespace) -> int:
    experiment = args.experiment
    for block in experiment.render(experiment.run(args), args):
        print()
        print(block)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .rt.server import run_server

    try:
        asyncio.run(run_server(
            args.data_dir, args.server_id, args.host, args.port,
            fault_plan=args.fault_plan,
            fault_trace=args.fault_trace,
            cluster_spec=args.cluster_spec,
        ))
    except KeyboardInterrupt:
        pass
    return 0


def _parse_server_arg(spec: str) -> tuple[str, tuple[str, int]]:
    """``sid=host:port`` → ``(sid, (host, port))``."""
    try:
        sid, addr = spec.split("=", 1)
        host, port = addr.rsplit(":", 1)
        return sid, (host, int(port))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected sid=host:port, got {spec!r}"
        ) from None


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .core.config import ReplicationConfig
    from .rt.loadgen import run_loadgen_sync, run_multi_loadgen_sync
    from .rt.placement import PlacementDirectory, load_cluster_spec

    if args.cluster_spec:
        directory = PlacementDirectory(load_cluster_spec(args.cluster_spec))
        servers, config = directory, None
        fleet = len(directory.addresses())
        copies = directory.spec.copies
    elif args.server:
        addrs = dict(_parse_server_arg(s) for s in args.server)
        config = ReplicationConfig(total_servers=len(addrs),
                                   copies=args.copies, delta=args.delta)
        servers, fleet, copies = addrs, len(addrs), args.copies
    else:
        raise SystemExit("loadgen needs --cluster-spec or --server")
    if args.clients > 1:
        multi = run_multi_loadgen_sync(
            servers, config, clients=args.clients,
            client_id=args.client_id, tenants=args.tenants,
            base_seed=args.seed, duration_s=args.duration,
            max_txns=args.max_txns, truncate_every=args.truncate_every,
        )
        if args.json:
            print(json.dumps(multi.as_dict(), indent=2, sort_keys=True))
        else:
            print(format_table(
                ["client", "txns", "txns/s", "p99 force (ms)"],
                [(r.client_id, r.transactions, f"{r.txns_per_sec:.1f}",
                  f"{r.force_p99_ms:.2f}") for r in multi.per_client]
                + [("TOTAL", multi.transactions,
                    f"{multi.txns_per_sec:.1f}",
                    f"{multi.force_p99_ms:.2f}")],
                title=(f"ET1 load: {args.clients} clients against "
                       f"{fleet} real servers (N={copies})"),
            ))
        return 0
    report = run_loadgen_sync(
        servers, config, client_id=args.client_id,
        duration_s=args.duration,
        max_txns=args.max_txns,
        truncate_every=args.truncate_every,
        rng_seed=args.seed,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(format_table(
            ["quantity", "value"],
            [(k, str(v)) for k, v in sorted(report.as_dict().items())],
            title=(f"ET1 load against {fleet} real servers "
                   f"(N={copies})"),
        ))
    return 0


def _cmd_ring(args: argparse.Namespace) -> int:
    import json

    from .rt.placement import (
        PlacementDirectory,
        load_cluster_spec,
        loadgen_client_ids,
    )

    directory = PlacementDirectory(load_cluster_spec(args.cluster_spec))
    changed = directory
    for sid in args.remove or []:
        changed = changed.without_server(sid)
    for spec in args.add or []:
        sid, addr = _parse_server_arg(spec)
        changed = changed.with_server(sid, addr)
    ids = (args.client_id or
           loadgen_client_ids(args.clients, tenants=args.tenants,
                              prefix=args.prefix))
    assignments = changed.assignments(ids)
    moved = (directory.moved_clients(changed, ids)
             if changed is not directory else [])
    if args.json:
        print(json.dumps({
            "digest": changed.digest(),
            "servers": sorted(changed.addresses()),
            "copies": changed.spec.copies,
            "vnodes": changed.spec.vnodes,
            "assignments": assignments,
            "moved": sorted(moved),
        }, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["client", "write set"],
        [(cid, " ".join(ws)) for cid, ws in assignments.items()],
        title=(f"placement — {len(changed.addresses())} servers, "
               f"N={changed.spec.copies}, vnodes={changed.spec.vnodes}, "
               f"digest {changed.digest()[:12]}"),
    ))
    per_server: dict[str, int] = {}
    for ws in assignments.values():
        for sid in ws:
            per_server[sid] = per_server.get(sid, 0) + 1
    print("\nstreams per server: " + ", ".join(
        f"{sid}={n}" for sid, n in sorted(per_server.items())))
    if changed is not directory:
        print(f"roster change moves {len(moved)}/{len(ids)} clients: "
              + (" ".join(sorted(moved)) or "(none)"))
    return 0


def _sweep_phases(args: argparse.Namespace) -> tuple[str, ...]:
    """The phase set the ``repro crashsweep`` flags ask for.

    ``--net`` / ``--fuzz`` / ``--plan`` narrow the run to the network
    side and ``--client`` to the client phase; a default run is every
    phase not switched off by a ``--no-*`` flag.
    """
    if args.net or args.fuzz or args.plan:
        return ("net",) if args.net else ()
    if args.client:
        return ("client",)
    skipped = {"daemon": args.no_daemon, "client": args.no_client,
               "net": args.no_net}
    return tuple(name for name in ("storage", "daemon", "client", "net")
                 if not skipped.get(name))


def _cmd_crashsweep(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from .harness.crashsweep import SweepConfig, run_crashsweep

    with tempfile.TemporaryDirectory(prefix="crashsweep-") as tmp:
        report = run_crashsweep(
            SweepConfig(
                root_dir=args.root_dir or tmp,
                seed=args.seed,
                quick=args.quick,
                point=args.point,
                phases=_sweep_phases(args),
                fuzz=args.fuzz,
                plan=args.plan,
            ),
            progress=None if args.json else print,
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 1 if report.failures else 0
    summary = report.as_dict()
    tables = (
        ("site", summary["sites"],
         f"crash-point sweep — seed {report.seed}, "
         f"{summary['points_enumerated']} points enumerated, "
         f"{report.cases_run} cases run"),
        ("client site", summary["client_sites"],
         f"client phase — {summary['client_points_enumerated']} protocol "
         f"points, {len(summary['client_cases'])} kill cases, "
         f"{summary['combined_cases_run']} combined"),
        ("network site", summary["net_sites"],
         f"network phase — {summary['net_points_enumerated']} frame "
         f"points, {len(summary['net_cases'])} fault cases "
         f"({summary['net_partition_cases']} partition-switch, "
         f"{summary['net_handoff_cases']} handoff), "
         f"{len(summary['fuzz_cases'])} fuzz"),
    )
    print()
    for heading, sites, title in tables:
        if sites:
            print(format_table(
                [heading, "points"],
                [(site, str(n)) for site, n in sites.items()],
                title=title))
    if report.failures:
        print("\nFAILURES:")
        for case in report.failures:
            for error in case.errors:
                print(f"  {case.spec}: {error}")
    else:
        print(f"\nall {report.cases_run} crash cases passed "
              f"({report.duration_s:.1f}s)")
    return 1 if report.failures else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .net.codec import frame, read_message
    from .net.messages import StatsCall, StatsReply

    async def fetch(host: str, port: int) -> dict:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), args.timeout)
        try:
            writer.write(frame(StatsCall(args.client_id)))
            await writer.drain()
            reply = await asyncio.wait_for(read_message(reader),
                                           args.timeout)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if not isinstance(reply, StatsReply):
            raise SystemExit(f"unexpected reply: {reply!r}")
        return reply.as_dict()

    if args.all or args.cluster_spec:
        # Fleet fan-out: one concurrent StatsCall per roster entry,
        # aggregated into per-server rows plus fleet totals.
        from .rt.placement import load_cluster_spec

        if not args.cluster_spec:
            raise SystemExit("stats --all needs --cluster-spec")
        roster = load_cluster_spec(args.cluster_spec).servers

        async def fan_out() -> dict[str, dict | None]:
            results = await asyncio.gather(
                *(fetch(host, port) for host, port in roster.values()),
                return_exceptions=True,
            )
            return {sid: (r if isinstance(r, dict) else None)
                    for sid, r in zip(roster, results)}

        per_server = asyncio.run(fan_out())
        reached = {sid: c for sid, c in per_server.items() if c is not None}
        totals: dict[str, int] = {}
        for counters in reached.values():
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        if args.json:
            print(json.dumps(
                {"servers": per_server, "fleet": totals,
                 "unreachable": sorted(set(per_server) - set(reached))},
                indent=2, sort_keys=True))
            return 0 if reached else 1
        show = ["messages_handled", "forces_acked", "store_records",
                "log_bytes", "fsyncs", "quota_rejections",
                "tenant_streams", "fence_rejections", "fence_epoch",
                "read_ahead_hits", "read_ahead_wasted"]
        rows = [
            tuple([sid] + [str(counters.get(k, "-")) for k in show])
            for sid, counters in sorted(reached.items())
        ] + [
            tuple([sid] + ["DOWN"] * len(show))
            for sid in sorted(set(per_server) - set(reached))
        ] + [tuple(["FLEET"] + [str(totals.get(k, 0)) for k in show])]
        print(format_table(
            ["server"] + show, rows,
            title=(f"fleet stats — {len(reached)}/{len(per_server)} "
                   f"servers reachable"),
        ))
        return 0 if reached else 1

    if not args.address:
        raise SystemExit("stats needs an address or --cluster-spec --all")
    host, port = args.address.rsplit(":", 1)
    counters = asyncio.run(fetch(host, int(port)))
    if args.json:
        print(json.dumps(counters, indent=2, sort_keys=True))
    else:
        print(format_table(
            ["counter", "value"],
            [(k, str(v)) for k, v in counters.items()],
            title=f"log-server stats — {args.address}",
        ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Distributed Logging for Transaction "
                    "Processing' (SIGMOD 1987)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and print the top 25 "
             "functions by cumulative time",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for experiment in EXPERIMENTS:
        p = sub.add_parser(experiment.command,
                           help=f"{experiment.id}: {experiment.title}")
        for param in experiment.params:
            p.add_argument(param.flag, type=type(param.default),
                           default=param.default,
                           help=f"{param.help} (default %(default)s)".lstrip())
        p.set_defaults(func=_cmd_paper, experiment=experiment)

    p = sub.add_parser(
        "serve", help="run one real log-server daemon (asyncio, TCP)")
    p.add_argument("--data-dir", required=True,
                   help="directory for the durable log (log.dat)")
    p.add_argument("--server-id", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; the chosen port is "
                        "announced as 'REPRO-SERVE <id> <host> <port>')")
    p.add_argument("--fault-plan", default=None, metavar="SITE:IDX:ACTION",
                   help="arm one deterministic storage fault (e.g. "
                        "'log.fsync:3:power-loss'); the daemon exits 86 "
                        "when an injected crash fires")
    p.add_argument("--fault-trace", default=None, metavar="PATH",
                   help="append every storage I/O point this daemon hits "
                        "to PATH (crash-point enumeration)")
    p.add_argument("--cluster-spec", default=None, metavar="PATH",
                   help="placements.json with per-tenant quotas to "
                        "enforce (the roster section is for clients; "
                        "this daemon still binds from its own args)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen", help="drive ET1 log load at running log servers")
    p.add_argument("--server", action="append", default=None,
                   metavar="SID=HOST:PORT",
                   help="one per server; repeat for the whole cluster "
                        "(or use --cluster-spec)")
    p.add_argument("--cluster-spec", default=None, metavar="PATH",
                   help="placements.json naming the roster and (N, δ); "
                        "clients are then placed through the "
                        "consistent-hash ring")
    p.add_argument("--copies", type=int, default=2,
                   help="N (default 2; ignored with --cluster-spec)")
    p.add_argument("--delta", type=int, default=8,
                   help="unacknowledged-record bound (default 8; "
                        "ignored with --cluster-spec)")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--max-txns", type=int, default=None)
    p.add_argument("--client-id", default="loadgen")
    p.add_argument("--clients", type=int, default=1,
                   help="concurrent closed-loop clients (default 1); "
                        "with K > 1 each client runs its own log as "
                        "<client-id>-<i>")
    p.add_argument("--tenants", type=int, default=0,
                   help="round-robin multi-client streams over this "
                        "many tenants as t<j>/<client-id>-<i> "
                        "(default 0: each stream is its own tenant)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed for deterministic per-client retry "
                        "jitter (client i uses a seed derived from "
                        "(seed, i))")
    p.add_argument("--truncate-every", type=int, default=0,
                   help="send a Section 5.3 TruncateLog round every "
                        "this many transactions (default off)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of a table")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "ring", help="print the consistent-hash placement directory "
                     "for a cluster spec")
    p.add_argument("--cluster-spec", required=True, metavar="PATH",
                   help="placements.json naming the roster")
    p.add_argument("--clients", type=int, default=16,
                   help="how many loadgen-style client ids to place "
                        "(default 16)")
    p.add_argument("--tenants", type=int, default=0,
                   help="spread the placed ids over this many tenants")
    p.add_argument("--prefix", default="lg",
                   help="client-id prefix for the placed ids")
    p.add_argument("--client-id", action="append", default=None,
                   metavar="CID",
                   help="place exactly these ids instead of generated "
                        "ones; repeatable")
    p.add_argument("--remove", action="append", default=None,
                   metavar="SID",
                   help="preview the roster without this server "
                        "(repeatable); prints which clients move")
    p.add_argument("--add", action="append", default=None,
                   metavar="SID=HOST:PORT",
                   help="preview the roster with this server added")
    p.add_argument("--json", action="store_true",
                   help="emit assignments as JSON (the cross-process "
                        "determinism check in the tests diffs this)")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser(
        "crashsweep",
        help="enumerate every storage I/O point of a scripted workload "
             "and re-run it crashing at each, checking the durability "
             "invariants after recovery")
    p.add_argument("--root-dir", default=None,
                   help="working directory for the sweep's stores "
                        "(default: a fresh temporary directory)")
    p.add_argument("--seed", type=int, default=0,
                   help="payload RNG seed (logged; use to replay a run)")
    p.add_argument("--quick", action="store_true",
                   help="bounded CI smoke: first/last point per site, "
                        "power-loss everywhere + one torn/flip/errno "
                        "case per site")
    p.add_argument("--point", default=None, metavar="SITE:IDX[:ACTION]",
                   help="replay exactly one crash case (action defaults "
                        "to power-loss; client.* replays a client-kill "
                        "case, net.* a frame-fault case with default "
                        "action drop)")
    p.add_argument("--no-daemon", action="store_true",
                   help="skip the subprocess phase (real 'repro serve' "
                        "daemons crashed over the wire)")
    p.add_argument("--client", action="store_true",
                   help="run only the client phase: kill a real client "
                        "worker process at each protocol crash point "
                        "and restart per Section 5.4 from a second "
                        "process")
    p.add_argument("--no-client", action="store_true",
                   help="skip the client phase")
    p.add_argument("--net", action="store_true",
                   help="run only the network phase: frame-level "
                        "faults (drop, corrupt, truncate, duplicate, "
                        "delay, partition, kill) injected by a "
                        "protocol-aware proxy fleet fronting real "
                        "daemons, plus Section 5.4 switch-under-"
                        "partition cases")
    p.add_argument("--no-net", action="store_true",
                   help="skip the network phase in a full run")
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="run N seeded multi-fault fuzz cases composing "
                        "network, storage, and client faults (2-4 per "
                        "case); failures print a --plan replay string")
    p.add_argument("--plan", default=None, metavar="SPEC",
                   help="replay one composite fuzz plan verbatim: "
                        "comma-separated [sid@]net.KIND.DIR:IDX:ACTION, "
                        "[sid@]STORAGE-SITE:IDX:ACTION, and "
                        "client.SITE:IDX:raise tokens")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of a table")
    p.set_defaults(func=_cmd_crashsweep)

    p = sub.add_parser(
        "stats", help="query log-server operational counters")
    p.add_argument("address", metavar="HOST:PORT", nargs="?", default=None,
                   help="one daemon to query (omit with "
                        "--cluster-spec --all)")
    p.add_argument("--cluster-spec", default=None, metavar="PATH",
                   help="placements.json naming the fleet roster")
    p.add_argument("--all", action="store_true",
                   help="query every server in --cluster-spec "
                        "concurrently and print per-server rows plus "
                        "fleet totals")
    p.add_argument("--client-id", default="stats",
                   help="client id for per-client counters such as "
                        "truncated_lsn (default 'stats')")
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return args.func(args)
        finally:
            profiler.disable()
            print()
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
