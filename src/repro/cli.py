"""Command-line interface: ``python -m repro <command>``.

A thin front-end over the experiment harness so the paper's results
can be regenerated without writing code:

* ``python -m repro availability``  — the Figure 3-4 table;
* ``python -m repro capacity``      — the Section 4.1 capacity table;
* ``python -m repro figures``       — the Figures 3-2/3-3 server states;
* ``python -m repro target-load``   — the simulated 500-TPS experiment;
* ``python -m repro prototype``     — the Section 5.6 comparison;
* ``python -m repro degraded``      — WriteLog under server outages;
* ``python -m repro sweep``         — offered-load saturation sweep;
* ``python -m repro churn``         — availability under crash/repair churn;
* ``python -m repro restart-latency`` — client init time vs M;
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

# Each subcommand imports what it runs inside its ``_cmd_*``: a
# ``repro serve`` daemon then loads the runtime and nothing of the
# simulator, the analysis or the experiment harness.


def format_table(*args, **kwargs) -> str:
    """:func:`repro.harness.tables.format_table`, imported on first use
    (any ``repro.harness`` import loads the whole harness package)."""
    from .harness.tables import format_table as render

    return render(*args, **kwargs)


def _cmd_availability(args: argparse.Namespace) -> int:
    from .core.availability import figure_3_4_series

    rows = []
    for n, points in sorted(figure_3_4_series(p=args.p, max_m=args.max_m).items()):
        for pt in points:
            rows.append((pt.m, pt.n, f"{pt.write:.6f}", f"{pt.init:.6f}",
                         f"{pt.read:.6f}"))
    print(format_table(
        ["M", "N", "WriteLog", "client init", "ReadLog"], rows,
        title=f"Figure 3-4 — availability of replicated logs (p = {args.p})",
    ))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from .analysis import CapacityConfig, analyze

    report = analyze(CapacityConfig(
        clients=args.clients, servers=args.servers, copies=args.copies,
    ))
    print(format_table(
        ["quantity", "model", "paper"], report.rows(),
        title=(f"Section 4.1 — capacity analysis ({args.clients} clients, "
               f"{args.servers} servers, N={args.copies})"),
    ))
    return 0


def _cmd_figures(_args: argparse.Namespace) -> int:
    from .harness import run_paper_figure_states

    states = run_paper_figure_states()
    for title, tables in (
        ("Figure 3-2 (record 10 partially written)", states.figure_3_2),
        ("Figure 3-3 (after crash recovery)", states.figure_3_3),
    ):
        for server_id in sorted(tables):
            print()
            print(format_table(["LSN", "Epoch", "Present"],
                               tables[server_id],
                               title=f"{title} — {server_id}"))
    print(f"\nreplicated log contents: {states.replicated_log_contents}")
    return 0


def _cmd_target_load(args: argparse.Namespace) -> int:
    from .harness import TargetLoadConfig, run_target_load

    result = run_target_load(TargetLoadConfig(
        clients=args.clients, servers=args.servers,
        duration_s=args.duration, seed=args.seed,
    ))
    print(format_table(
        ["quantity", "measured", "expected"], result.rows(),
        title=(f"Section 4.1 (simulated) — {args.clients} clients, "
               f"{args.servers} servers, {args.duration}s"),
    ))
    print(f"\ncompleted transactions: {result.completed_txns}; "
          f"force p95 {result.force_p95_ms:.2f} ms")
    return 0


def _cmd_prototype(args: argparse.Namespace) -> int:
    from .harness import run_prototype_comparison

    pc = run_prototype_comparison(transactions=args.transactions)
    print(format_table(
        ["remote (s)", "local (s)", "ratio"],
        [(f"{pc.remote_elapsed_s:.2f}", f"{pc.local_elapsed_s:.2f}",
          f"{pc.ratio:.2f}")],
        title=(f"Section 5.6 — remote (N=2, Accent IPC) vs local disk, "
               f"{args.transactions} ET1 transactions"),
    ))
    print("\npaper: remote used less than twice the local elapsed time")
    return 0


def _cmd_degraded(args: argparse.Namespace) -> int:
    from .harness import run_degraded_mode

    rows = run_degraded_mode(duration_s=args.duration)
    print(format_table(
        ["down", "up", "txns", "mean force (ms)", "survivor CPU"],
        [(r.servers_down, r.servers_up, r.completed_txns,
          f"{r.mean_force_ms:.2f}",
          f"{r.survivor_cpu_utilization * 100:.1f}%") for r in rows],
        title="Section 3.2 — WriteLog under server outages",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import run_load_sweep

    rows = run_load_sweep(duration_s=args.duration)
    print(format_table(
        ["offered TPS/client", "achieved", "mean force (ms)", "disk util",
         "shed"],
        [(f"{r.tps_per_client:.0f}", f"{r.achieved_tps:.0f}",
          f"{r.mean_force_ms:.2f}", f"{r.disk_utilization * 100:.0f}%",
          r.messages_shed) for r in rows],
        title="Saturation sweep",
    ))
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from .harness import ChurnConfig, run_availability_churn

    result = run_availability_churn(ChurnConfig(
        servers=args.servers, copies=args.copies, clients=args.clients,
        p=args.p, mtbf_s=args.mtbf, duration_s=args.duration,
        tps_per_client=args.tps, seed=args.seed,
        link_p=args.link_p, generator_p=args.generator_p,
    ))
    print(format_table(
        ["quantity", "measured", "closed form"], result.rows(),
        title=(f"Section 3.2 under churn — M={args.servers}, "
               f"N={args.copies}, p={args.p}, {args.duration:.0f}s"),
    ))
    print(f"\nserver crashes: {result.server_crashes} "
          f"(mttr {result.mttr_s:.2f}s); "
          f"link crashes: {result.link_crashes}; "
          f"generator crashes: {result.generator_crashes}")
    print(f"transactions committed: {result.committed_txns}, "
          f"failed: {result.failed_txns}; "
          f"client initializations: {result.client_reinits}; "
          f"write-set migrations: {result.server_switches}")
    return 0


def _cmd_restart(args: argparse.Namespace) -> int:
    from .harness import run_restart_latency

    rows = run_restart_latency()
    print(format_table(
        ["M", "mean restart (ms)", "max restart (ms)"],
        [(r.m, f"{r.mean_restart_ms:.1f}", f"{r.max_restart_ms:.1f}")
         for r in rows],
        title="Client initialization latency vs M",
    ))
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

    p = sub.add_parser("availability", help="Figure 3-4 closed forms")
    p.add_argument("--p", type=float, default=0.05,
                   help="per-server unavailability (default 0.05)")
    p.add_argument("--max-m", type=int, default=8)
    p.set_defaults(func=_cmd_availability)

    p = sub.add_parser("capacity", help="Section 4.1 capacity analysis")
    p.add_argument("--clients", type=int, default=50)
    p.add_argument("--servers", type=int, default=6)
    p.add_argument("--copies", type=int, default=2)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("figures", help="Figures 3-2/3-3 server states")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("target-load", help="simulated Section 4.1 load")
    p.add_argument("--clients", type=int, default=50)
    p.add_argument("--servers", type=int, default=6)
    p.add_argument("--duration", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_target_load)

    p = sub.add_parser("prototype", help="Section 5.6 comparison")
    p.add_argument("--transactions", type=int, default=200)
    p.set_defaults(func=_cmd_prototype)

    p = sub.add_parser("degraded", help="WriteLog under server outages")
    p.add_argument("--duration", type=float, default=2.0)
    p.set_defaults(func=_cmd_degraded)

    p = sub.add_parser("sweep", help="offered-load saturation sweep")
    p.add_argument("--duration", type=float, default=2.0)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "churn", help="measured vs closed-form availability under "
                      "crash/repair churn")
    p.add_argument("--servers", type=int, default=6)
    p.add_argument("--copies", type=int, default=2)
    p.add_argument("--clients", type=int, default=3)
    p.add_argument("--p", type=float, default=0.05,
                   help="per-server long-run unavailability (default 0.05)")
    p.add_argument("--mtbf", type=float, default=30.0,
                   help="mean time between server failures, seconds")
    p.add_argument("--duration", type=float, default=120.0,
                   help="simulated seconds of churn (default 120)")
    p.add_argument("--tps", type=float, default=10.0,
                   help="ET1 transactions/second per client")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--link-p", type=float, default=0.0,
                   help="LAN unavailability (message-loss churn)")
    p.add_argument("--generator-p", type=float, default=0.0,
                   help="generator-representative unavailability")
    p.set_defaults(func=_cmd_churn)

    p = sub.add_parser("restart-latency", help="client init time vs M")
    p.set_defaults(func=_cmd_restart)

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
