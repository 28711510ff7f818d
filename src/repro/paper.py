"""The paper's results, each stated once: one row per E/A experiment.

Every row of :data:`EXPERIMENTS` is one entry of EXPERIMENTS.md
(E1–E11, A1–A9) and carries all that its two readers need:

* ``python -m repro <command>`` — one subcommand per row, its flags
  from ``params``; it prints ``render(run(args), args)``;
* ``benchmarks/bench_paper.py`` — one case per row: it runs the row
  once at those defaults, prints the same blocks and calls ``check``,
  the asserts on the paper's claims.

A parameter has one default, the size its claim is checked at.  The
module loads nothing beyond ``repro.core`` and ``repro.tables``: each
``run`` imports its runner when called, so ``repro serve`` can build
its parser from this table without loading the simulator, the
analysis or the harness.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable

from .core import availability as av
from .tables import format_table

Args = argparse.Namespace


@dataclass(frozen=True)
class Param:
    """One ``--flag`` of a row's command; its type is its default's."""

    flag: str
    default: int | float
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Experiment:
    id: str
    command: str
    title: str
    params: tuple[Param, ...]
    run: Callable[[Args], Any]
    #: the blocks (tables, note lines) printed for a result
    render: Callable[[Any, Args], list[str]]
    #: the paper's claims, asserted on a result at the default sizes
    check: Callable[[Any, Args], None]
    #: figures the benchmark records in ``BENCH_paper.json``
    metrics: Callable[[Any], dict[str, Any]] | None = None


def _experiments():
    """:mod:`repro.harness.experiments`, imported when a row runs."""
    from .harness import experiments

    return experiments


def _capacity():
    """:mod:`repro.analysis.capacity`, imported when a row runs."""
    from .analysis import capacity

    return capacity


def _render_e1(series, a: Args) -> list[str]:
    rows = [(pt.m, pt.n, f"{pt.write:.6f}", f"{pt.init:.6f}",
             f"{av.restart_availability(pt.m, pt.n, pt.p):.6f}",
             f"{pt.read:.6f}")
            for _n, points in sorted(series.items()) for pt in points]
    return [
        format_table(
            ["M", "N", "WriteLog avail", "Client-init avail",
             "init (code)", "ReadLog avail"], rows,
            f"Figure 3-4 — availability of replicated logs (p = {a.p})"),
        f"single mirrored server reference : "
        f"{av.single_server_availability(a.p):.4f}   (paper: 0.95)\n"
        f"M=5 N=2 client init              : "
        f"{av.init_availability(5, 2, a.p):.4f}   (paper: about 0.98)\n"
        f"M=5 N=3 write / init             : "
        f"{av.write_availability(5, 3, a.p):.4f} / "
        f"{av.init_availability(5, 3, a.p):.4f}   (paper: about 0.999)\n"
        f"max M with dual-copy init >= 0.95: "
        f"{av.max_m_for_init_availability(2, a.p, 0.95)}   (paper: M = 7)",
    ]


def _check_e1(_series, _a: Args) -> None:
    assert av.write_availability(8, 2, 0.05) > 0.999999
    assert av.init_availability(5, 2, 0.05) > 0.97
    assert av.read_availability(2, 0.05) > 0.997


def _points(grid) -> list:
    return [pt for _n, points in sorted(grid.items()) for pt in points]


def _render_e2(grid, _a: Args) -> list[str]:
    points = _points(grid)
    return [format_table(
        ["M", "N", "write", "write CF", "init", "init CF (paper)",
         "init CF (code)", "read", "read CF"],
        [(pt.m, pt.n, f"{pt.write:.6f}",
          f"{av.write_availability(pt.m, pt.n, pt.p):.6f}",
          f"{pt.init:.6f}", f"{av.init_availability(pt.m, pt.n, pt.p):.6f}",
          f"{av.restart_availability(pt.m, pt.n, pt.p):.6f}",
          f"{pt.read:.6f}", f"{av.read_availability(pt.n, pt.p):.6f}")
         for pt in points],
        f"Figure 3-4 on the shipped code — exact over every down-set, "
        f"p = {points[0].p}")]


def _check_e2(grid, _a: Args) -> None:
    points = _points(grid)
    assert [(pt.m, pt.n) for pt in points] == [
        (m, n) for n in (2, 3) for m in range(n, 9)]
    for pt in points:
        m, n, p = pt.m, pt.n, pt.p
        assert abs(pt.write - av.write_availability(m, n, p)) <= 1e-12
        assert abs(pt.read - av.read_availability(n, p)) <= 1e-12
        assert abs(pt.init - av.restart_availability(m, n, p)) <= 1e-12
        # the paper's form counts the gather alone; the restart also
        # needs N servers for its copies
        if m >= 2 * n - 1:
            assert abs(pt.init - av.init_availability(m, n, p)) <= 1e-12
        else:
            assert pt.init < av.init_availability(m, n, p)


def _metrics_e2(grid) -> dict[str, Any]:
    return {pt.label: {"write": pt.write, "init": pt.init, "read": pt.read}
            for pt in _points(grid)}


def _render_e3(report, a: Args) -> list[str]:
    return [format_table(
        ["quantity", "model", "paper"], report.rows(),
        f"Section 4.1 — log-server capacity analysis ({a.clients} clients "
        f"x 10 TPS ET1, {a.servers} servers, N={a.copies})")]


def _check_e3(report, _a: Args) -> None:
    assert abs(report.unbatched_msgs_per_server_s - 2400) < 150
    assert abs(report.rpcs_per_server_s - 170) < 10
    assert report.comm_cpu_fraction < 0.10
    assert 0.40 < report.disk_utilization < 0.60
    assert 0.9e10 < report.bytes_per_server_day < 1.1e10


#: Median wall-clock seconds for E4's exact run (duration_s=4.0,
#: default seed) before the hot-path optimization pass, measured
#: interleaved with the optimized build on the same idle machine.
PRE_CHANGE_BASELINE_WALL_S = 1.07
#: The optimized build's interleaved median was 0.52 s (2.06x); the
#: assertion floor leaves headroom for slower or noisier machines.
MIN_SPEEDUP = 1.4


def _run_e4(a: Args):
    ex = _experiments()
    return ex.run_target_load(ex.TargetLoadConfig(
        clients=a.clients, servers=a.servers, duration_s=a.duration,
        seed=a.seed))


def _render_e4(result, a: Args) -> list[str]:
    speedup = PRE_CHANGE_BASELINE_WALL_S / result.wall_seconds
    return [
        format_table(
            ["quantity", "measured", "expected (scaled to achieved TPS)"],
            result.rows(),
            f"Section 4.1 (simulated) — {a.clients} clients x 10 TPS, "
            f"{a.servers} servers, N=2, {a.duration}s"),
        f"completed transactions : {result.completed_txns}\n"
        f"force latency p95      : {result.force_p95_ms:.2f} ms\n"
        f"per-network bandwidth  : " + ", ".join(
            f"{u*100:.1f}%" for u in result.per_network_utilization) + "\n"
        f"wall-clock             : {result.wall_seconds:.3f} s "
        f"({speedup:.2f}x vs pre-change "
        f"{PRE_CHANGE_BASELINE_WALL_S:.2f} s)\n"
        f"kernel events/sec      : {result.events_per_sec:,.0f}\n"
        f"sim-s per wall-s       : {result.sim_time_ratio:.1f}",
    ]


def _check_e4(result, _a: Args) -> None:
    speedup = PRE_CHANGE_BASELINE_WALL_S / result.wall_seconds
    assert result.failed_drivers == 0
    assert result.messages_shed == 0
    assert result.achieved_tps > 350          # near the 500-TPS target
    scale = result.achieved_tps / 500.0
    assert abs(result.rpcs_per_server_s - 167 * scale) < 167 * scale * 0.2
    assert 0.30 < result.server_disk_utilization < 0.65
    assert result.server_cpu_utilization < 0.30
    assert result.force_mean_ms < 15.0
    assert speedup >= MIN_SPEEDUP, (
        f"E4 wall-clock regressed: {result.wall_seconds:.3f}s is only "
        f"{speedup:.2f}x over the {PRE_CHANGE_BASELINE_WALL_S:.2f}s baseline"
    )


def _metrics_e4(result) -> dict[str, Any]:
    return {
        **{name: getattr(result, name) for name in (
            "completed_txns", "achieved_tps", "force_mean_ms",
            "force_p95_ms", "kernel_events", "events_per_sec",
            "sim_time_ratio")},
        "speedup_vs_pre_change":
            PRE_CHANGE_BASELINE_WALL_S / result.wall_seconds,
        "pre_change_baseline_wall_s": PRE_CHANGE_BASELINE_WALL_S,
    }


def _render_e5(pair, a: Args) -> list[str]:
    accent, efficient = pair
    return [
        format_table(
            ["configuration", "remote (s)", "local (s)", "remote/local"],
            [(name, f"{pc.remote_elapsed_s:.2f}",
              f"{pc.local_elapsed_s:.2f}", f"{pc.ratio:.2f}")
             for name, pc in (
                 ("Accent-era IPC (1986 prototype)", accent),
                 ("specialized low-level protocols (Sec 4.1)", efficient))],
            f"Section 5.6 — remote logging (2 servers, N=2) vs local "
            f"single-disk logging, {a.transactions} ET1 transactions"),
        "paper: remote used less than twice the local elapsed time",
    ]


def _check_e5(pair, _a: Args) -> None:
    accent, efficient = pair
    # the paper's claim: less than twice the local elapsed time
    assert 1.0 < accent.ratio < 2.0
    # and the design's promise: efficient protocols make remote faster
    assert efficient.ratio < 1.0


FIGURE_3_3 = {
    "Server 1": [
        (1, 1, "yes"), (2, 1, "yes"), (3, 1, "yes"),
        (3, 3, "yes"), (4, 3, "no"), (5, 3, "yes"),
        (6, 3, "yes"), (7, 3, "yes"), (8, 3, "yes"), (9, 3, "yes"),
        (9, 4, "yes"), (10, 4, "no"),
    ],
    "Server 2": [
        (1, 1, "yes"), (2, 1, "yes"), (3, 1, "yes"),
        (6, 3, "yes"), (7, 3, "yes"), (9, 4, "yes"), (10, 4, "no"),
    ],
    "Server 3": [
        (3, 3, "yes"), (4, 3, "no"), (5, 3, "yes"),
        (8, 3, "yes"), (9, 3, "yes"), (10, 3, "yes"),
    ],
}


def _render_e6(states, _a: Args) -> list[str]:
    return [
        format_table(
            ["LSN", "Epoch", "Present"], tables[server_id],
            f"{figure} — {server_id}")
        for figure, tables in (
            ("Figure 3-2 (record 10 partially written)", states.figure_3_2),
            ("Figure 3-3 (after crash recovery via Servers 1 and 2)",
             states.figure_3_3))
        for server_id in ("Server 1", "Server 2", "Server 3")
    ] + [f"replicated log contents: {states.replicated_log_contents} "
         "(paper: records 1,2 epoch 1; 3 epoch 3; 5-9 epoch 3)"]


def _check_e6(states, _a: Args) -> None:
    assert states.figure_3_3 == FIGURE_3_3
    assert states.replicated_log_contents == [1, 2, 3, 5, 6, 7, 8, 9]


def _render_e7(forest, _a: Args) -> list[str]:
    return [
        "Figure 4-3 — eleven-node append forest: trees of 7, 3 and 1 "
        f"nodes (heights {forest.example_heights})",
        format_table(
            ["nodes", "mean hops", "worst hops", "2·log2(n)+1 bound",
             "trees"],
            [(n, f"{mean:.1f}", worst, bound, trees)
             for n, mean, worst, bound, trees in forest.search_cost],
            "Section 4.3 — append-forest search cost is O(log n)"),
        f"appends are constant-time: {forest.appends:,} appends made "
        f"{forest.page_writes:,} page writes",
    ]


def _check_e7(forest, _a: Args) -> None:
    assert forest.example_heights == [2, 1, 0]
    for _n, _mean, worst, bound, _trees in forest.search_cost:
        assert worst <= bound
    assert forest.page_writes == 10_000


def _render_e8(grid, _a: Args) -> list[str]:
    return [
        format_table(
            ["representatives", "exact", "closed form",
             "ids monotone"],
            [(g.n_reps, f"{g.available:.6f}",
              f"{av.generator_availability(g.n_reps, g.p):.6f}",
              "yes" if g.monotone else "NO") for g in grid],
            f"Appendix I — NewID availability over every down-set, "
            f"p = {grid[0].p}"),
        "Appendix I — NewID issues strictly increasing integers via "
        "majority read + majority write.",
    ]


def _check_e8(grid, _a: Args) -> None:
    for g in grid:
        assert abs(g.available
                   - av.generator_availability(g.n_reps, g.p)) <= 1e-12
        assert g.monotone


def _metrics_e8(grid) -> dict[str, Any]:
    return {f"reps={g.n_reps}": {"available": g.available,
                                 "monotone": g.monotone} for g in grid}


def _render_e9(rows, _a: Args) -> list[str]:
    return [format_table(
        ["servers down", "servers up", "txns completed",
         "mean force (ms)", "p95 force (ms)", "survivor CPU"],
        [(r.servers_down, r.servers_up, r.completed_txns,
          f"{r.mean_force_ms:.2f}", f"{r.p95_force_ms:.2f}",
          f"{r.survivor_cpu_utilization * 100:.1f}%") for r in rows],
        "Section 3.2 — WriteLog service with 0/1/2 of 4 servers down")]


def _check_e9(rows, _a: Args) -> None:
    baseline = rows[0]
    worst = rows[-1]
    # no outage renders WriteLog unavailable
    assert all(r.failed_drivers == 0 for r in rows)
    # throughput holds within a few percent
    assert worst.completed_txns > 0.9 * baseline.completed_txns
    # latency degrades gently, not catastrophically
    assert worst.mean_force_ms < 2 * baseline.mean_force_ms
    # the survivors really are carrying the concentrated load
    assert (worst.survivor_cpu_utilization
            > 1.5 * baseline.survivor_cpu_utilization)


def _render_e10(rows, _a: Args) -> list[str]:
    return [
        format_table(
            ["M", "intervals merged", "mean restart (ms)",
             "max restart (ms)"],
            [(r.m, r.intervals_merged, f"{r.mean_restart_ms:.1f}",
              f"{r.max_restart_ms:.1f}") for r in rows],
            "Client initialization latency vs number of log servers "
            "(N=2, δ=8)"),
        "restart cost = M sequential IntervalList RPCs (+~2 ms per "
        "server) + reading the last δ records (disk-bound on the first "
        "restart, NVRAM-fast afterwards) + CopyLog/InstallCopies on N "
        "servers.",
    ]


def _check_e10(rows, _a: Args) -> None:
    # the M-dependence is mild: a few ms per extra server
    assert rows[-1].mean_restart_ms - rows[0].mean_restart_ms < 50
    # and restart stays comfortably sub-second even at M=8
    assert rows[-1].max_restart_ms < 1000


def _run_e11(a: Args):
    from .harness.churn import ChurnConfig, run_availability_churn

    return run_availability_churn(ChurnConfig(
        servers=a.servers, copies=a.copies, clients=a.clients, p=a.p,
        mtbf_s=a.mtbf, duration_s=a.duration, tps_per_client=a.tps,
        seed=a.seed, link_p=a.link_p, generator_p=a.generator_p))


def _render_e11(result, _a: Args) -> list[str]:
    cfg = result.config
    return [
        format_table(
            ["quantity", "measured", "closed form"], result.rows(),
            f"Section 3.2 under churn — M={cfg.servers}, N={cfg.copies}, "
            f"p={cfg.p}, {cfg.duration_s:.0f}s"),
        f"server crashes         : {result.server_crashes} "
        f"(mtbf {cfg.mtbf_s:.0f}s, mttr {result.mttr_s:.2f}s)\n"
        f"link / generator crashes: {result.link_crashes} / "
        f"{result.generator_crashes}\n"
        f"transactions           : {result.committed_txns} committed, "
        f"{result.failed_txns} failed\n"
        f"client initializations : {result.client_reinits}\n"
        f"write-set migrations   : {result.server_switches}\n"
        f"wall-clock             : {result.wall_seconds:.3f} s",
    ]


def _check_e11(result, _a: Args) -> None:
    # the acceptance bound: measured WriteLog availability within one
    # percentage point of the closed form, at any horizon
    assert abs(result.write_available_measured
               - result.write_available_closed) <= 0.01


def _metrics_e11(result) -> dict[str, Any]:
    return {name: getattr(result, name) for name in (
        "write_available_measured", "write_available_closed",
        "init_available_measured", "init_available_closed",
        "read_available_measured", "read_available_closed",
        "server_crashes", "committed_txns", "failed_txns",
        "client_reinits", "server_switches", "kernel_events",
        "sim_seconds")}


def _render_a1(reports, _a: Args) -> list[str]:
    return [format_table(
        ["records/message", "packets/server/s", "RPCs/server/s",
         "comm CPU", "net Mbit/s"],
        [(r.config.effective_grouping, f"{r.packets_per_server_s:,.0f}",
          f"{r.rpcs_per_server_s:,.0f}", f"{r.comm_cpu_fraction * 100:.1f}%",
          f"{r.network_bits_per_s / 1e6:.1f}") for r in reports],
        "Ablation A1 — grouping factor sweep (Section 4.1)")]


def _check_a1(reports, _a: Args) -> None:
    by_factor = {r.config.effective_grouping: r for r in reports}
    # factor 1 reproduces the 2400-messages strawman
    assert abs(by_factor[1].packets_per_server_s - 2333) < 50
    # factor 7 (ET1's one force per txn) reproduces ~170 RPCs
    assert abs(by_factor[7].rpcs_per_server_s - 167) < 5
    # CPU falls monotonically with grouping
    fractions = [r.comm_cpu_fraction for r in reports]
    assert fractions == sorted(fractions, reverse=True)


def _render_a2(result, _a: Args) -> list[str]:
    return [format_table(
        ["configuration", "force latency (ms)", "disk utilization"],
        [("with NVRAM buffer (paper design)",
          f"{result.with_nvram_force_ms:.2f}",
          f"{result.with_nvram_disk_util * 100:.1f}%"),
         ("without NVRAM (force = disk write)",
          f"{result.without_nvram_force_ms:.2f}",
          f"{result.without_nvram_disk_util * 100:.1f}%")],
        "Ablation A2 — NVRAM buffering on/off (1 client, 2 servers)")]


def _check_a2(result, _a: Args) -> None:
    assert result.latency_ratio > 3.0
    assert result.with_nvram_force_ms < 10.0


def _render_a3(rows, _a: Args) -> list[str]:
    return [format_table(
        ["mode", "bytes logged", "records", "undo records logged",
         "abort log reads", "local aborts"],
        [(r.mode, f"{r.bytes_logged:,}", r.records_logged,
          r.undo_records_logged, r.remote_abort_reads, r.local_aborts)
         for r in rows],
        "Ablation A3 — record splitting & undo caching "
        "(80 long transactions, 15% aborts)")]


def _check_a3(rows, _a: Args) -> None:
    by_mode = {r.mode: r for r in rows}
    assert by_mode["split"].bytes_logged < by_mode["combined"].bytes_logged
    assert by_mode["split"].remote_abort_reads == 0
    assert by_mode["combined"].remote_abort_reads > 0


def _render_a4(rows, _a: Args) -> list[str]:
    return [format_table(
        ["strategy", "mean force (ms)", "p95 force (ms)",
         "max interval-list length", "server switches"],
        [(r.strategy, f"{r.mean_force_ms:.2f}", f"{r.p95_force_ms:.2f}",
          r.max_interval_list_len, r.server_switches) for r in rows],
        "Ablation A4 — load assignment (10 clients, 4 servers)")]


def _check_a4(rows, _a: Args) -> None:
    by_name = {r.strategy: r for r in rows}
    assert by_name["sticky"].max_interval_list_len == 1
    assert (by_name["rotate-often"].max_interval_list_len
            > by_name["sticky"].max_interval_list_len)


def _render_a5(grid, _a: Args) -> list[str]:
    return [
        format_table(
            ["M", "N", "WriteLog availability", "restart availability",
             "init CF (paper)"],
            [(pt.m, pt.n, f"{pt.write:.6f}", f"{pt.init:.6f}",
              f"{av.init_availability(pt.m, pt.n, pt.p):.6f}")
             for pt in _points(grid)],
            "Ablation A5 — write vs restart availability of the shipped "
            "code, exact"),
        "restart availability peaks at M = 2N − 1: " + ", ".join(
            f"N={n} at M={max(points, key=lambda pt: pt.init).m}"
            for n, points in sorted(grid.items())),
    ]


def _check_a5(grid, _a: Args) -> None:
    by_point = {(pt.m, pt.n): pt for pt in _points(grid)}
    for n, points in grid.items():
        # from M = 2N − 1 on, more servers: better writes, worse restarts
        frontier = [pt for pt in points if pt.m >= 2 * n - 1]
        assert all(a.write < b.write and a.init > b.init
                   for a, b in zip(frontier, frontier[1:]))
        # below it the restart is short of N servers for its copies
        assert max(points, key=lambda pt: pt.init) is frontier[0]
    # at fixed M, triple copy trades write for restart availability
    for m in range(5, 9):
        assert by_point[m, 3].write < by_point[m, 2].write
        assert by_point[m, 3].init > by_point[m, 2].init


def _render_a6(rows, _a: Args) -> list[str]:
    return [format_table(
        ["strategy", "bytes logged", "online bytes", "offline bytes",
         "node-recovery reads", "media-recovery reads"],
        [(r.strategy, f"{r.total_bytes_logged:,}", f"{r.online_bytes:,}",
          f"{r.offline_bytes:,}", r.node_recovery_entries,
          r.media_recovery_entries) for r in rows],
        "Ablation A6 — space management strategies "
        "(100 txns, dump every 30)")]


def _check_a6(rows, _a: Args) -> None:
    by_name = {r.strategy: r for r in rows}
    # accumulate keeps everything online
    assert by_name["accumulate"].online_bytes == \
        by_name["accumulate"].total_bytes_logged
    # spooling shrinks online storage without losing media recoverability
    assert by_name["spool"].online_bytes < by_name["accumulate"].online_bytes
    assert by_name["spool"].offline_bytes > 0
    # discarding shrinks online storage and keeps nothing offline
    assert by_name["dump+discard"].online_bytes < \
        by_name["accumulate"].online_bytes
    assert by_name["dump+discard"].offline_bytes == 0


def _render_a7(result, _a: Args) -> list[str]:
    return [format_table(
        ["delivery", "traffic (Mbit)", "medium busy (s)"],
        [("unicast x N", f"{result.unicast_mbits:.2f}",
          f"{result.unicast_medium_busy_s:.3f}"),
         ("multicast", f"{result.multicast_mbits:.2f}",
          f"{result.multicast_medium_busy_s:.3f}")],
        "Ablation A7 — multicast vs unicast delivery of N=2 forces")]


def _check_a7(result, _a: Args) -> None:
    assert abs(result.traffic_ratio - 0.5) <= 0.02
    assert (result.multicast_medium_busy_s
            < 0.6 * result.unicast_medium_busy_s)


def _run_a8(_a: Args):
    from .analysis.commit import crossover_table

    return crossover_table(6)


def _render_a8(rows, _a: Args) -> list[str]:
    return [
        format_table(
            ["participants",
             "2PC msgs", "2PC forces", "2PC latency (ms)",
             "common msgs", "common forces", "common latency (ms)"],
            [(k, tpc.protocol_messages, tpc.log_forces,
              f"{tpc.latency_s * 1000:.2f}", cc.protocol_messages,
              cc.log_forces, f"{cc.latency_s * 1000:.2f}")
             for k, tpc, cc in rows],
            "Section 5.5 — commit cost: 2PC over replicated logs vs "
            "a common coordinating server"),
        "availability of the common server: 0.95 at p=0.05 for every "
        "operation — the Figure 3-4 curves are the other side of this "
        "trade-off.",
    ]


def _check_a8(_rows, _a: Args) -> None:
    from .analysis.commit import common_commit_cost, two_phase_commit_cost

    # local transactions: replicated logging strictly cheaper
    local_tpc = two_phase_commit_cost(1)
    local_cc = common_commit_cost(1)
    assert local_tpc.log_forces < local_cc.log_forces
    assert local_tpc.protocol_messages == 0
    # multi-node transactions: the common server wins on forces
    multi_tpc = two_phase_commit_cost(4)
    multi_cc = common_commit_cost(4)
    assert multi_cc.log_forces < multi_tpc.log_forces
    assert multi_cc.latency_s < multi_tpc.latency_s


def _render_a9(rows, _a: Args) -> list[str]:
    return [format_table(
        ["offered TPS/client", "achieved TPS", "mean force (ms)",
         "p95 force (ms)", "disk util", "CPU util", "msgs shed"],
        [(f"{r.tps_per_client:.0f}", f"{r.achieved_tps:.0f}",
          f"{r.mean_force_ms:.2f}", f"{r.p95_force_ms:.2f}",
          f"{r.disk_utilization * 100:.0f}%",
          f"{r.cpu_utilization * 100:.0f}%", r.messages_shed) for r in rows],
        "Saturation sweep — ablation A9 (10 clients, 2 servers)")]


def _check_a9(rows, _a: Args) -> None:
    # disk utilization grows with load until it saturates
    utils = [r.disk_utilization for r in rows]
    assert utils[0] < 0.5
    assert utils[-1] > 0.9
    # latency at 8x is visibly above the NVRAM floor
    assert rows[-1].mean_force_ms > 1.3 * rows[0].mean_force_ms
    # and the throughput curve flattens (achieved < offered at the top)
    offered_top = rows[-1].tps_per_client * 10
    assert rows[-1].achieved_tps < 0.8 * offered_top


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "E1", "availability", "Figure 3-4 closed forms",
        (Param("--p", 0.05, "per-server unavailability"),
         Param("--max-m", 8)),
        lambda a: av.figure_3_4_series(p=a.p, max_m=a.max_m),
        _render_e1, _check_e1),
    Experiment(
        "E2", "down-sets",
        "Figure 3-4 on the real algorithm over every down-set", (),
        lambda a: _experiments().run_availability_grid(),
        _render_e2, _check_e2, _metrics_e2),
    Experiment(
        "E3", "capacity", "Section 4.1 capacity analysis",
        (Param("--clients", 50), Param("--servers", 6), Param("--copies", 2)),
        lambda a: _capacity().analyze(_capacity().CapacityConfig(
            clients=a.clients, servers=a.servers, copies=a.copies)),
        _render_e3, _check_e3),
    Experiment(
        "E4", "target-load", "simulated Section 4.1 load",
        (Param("--clients", 50), Param("--servers", 6),
         Param("--duration", 4.0), Param("--seed", 0)),
        _run_e4, _render_e4, _check_e4, _metrics_e4),
    Experiment(
        "E5", "prototype", "Section 5.6 comparison",
        (Param("--transactions", 200),),
        lambda a: _experiments().run_prototype_pair(a.transactions),
        _render_e5, _check_e5),
    Experiment(
        "E6", "figures", "Figures 3-2/3-3 server states", (),
        lambda a: _experiments().run_paper_figure_states(),
        _render_e6, _check_e6),
    Experiment(
        "E7", "append-forest",
        "Figures 4-2/4-3 append-forest shape and search cost", (),
        lambda a: _experiments().run_append_forest(),
        _render_e7, _check_e7),
    Experiment(
        "E8", "generator", "Appendix I NewID availability", (),
        lambda a: _experiments().run_generator_grid(),
        _render_e8, _check_e8, _metrics_e8),
    Experiment(
        "E9", "degraded", "WriteLog under server outages",
        (Param("--duration", 2.0),),
        lambda a: _experiments().run_degraded_mode(duration_s=a.duration),
        _render_e9, _check_e9),
    Experiment(
        "E10", "restart-latency", "client init time vs M", (),
        lambda a: _experiments().run_restart_latency(),
        _render_e10, _check_e10),
    Experiment(
        "E11", "churn",
        "measured vs closed-form availability under crash/repair churn",
        (Param("--servers", 6), Param("--copies", 2), Param("--clients", 3),
         Param("--p", 0.05, "per-server long-run unavailability"),
         Param("--mtbf", 30.0, "mean time between server failures, seconds"),
         Param("--duration", 600.0, "simulated seconds of churn"),
         Param("--tps", 10.0, "ET1 transactions/second per client"),
         Param("--seed", 0),
         Param("--link-p", 0.0, "LAN unavailability (message-loss churn)"),
         Param("--generator-p", 0.0,
               "generator-representative unavailability")),
        _run_e11, _render_e11, _check_e11, _metrics_e11),
    Experiment(
        "A1", "grouping", "grouping factor sweep", (),
        lambda a: _capacity().grouping_sweep((1, 2, 3, 5, 7, 14)),
        _render_a1, _check_a1),
    Experiment(
        "A2", "nvram", "NVRAM buffering on/off", (),
        lambda a: _experiments().run_nvram_ablation(transactions=250),
        _render_a2, _check_a2),
    Experiment(
        "A3", "splitting", "record splitting & undo caching", (),
        lambda a: _experiments().run_splitting_ablation(transactions=80),
        _render_a3, _check_a3),
    Experiment(
        "A4", "assignment", "sticky vs rotating load assignment", (),
        lambda a: _experiments().run_assignment_ablation(
            clients=10, servers=4, duration_s=2.5),
        _render_a4, _check_a4),
    Experiment(
        "A5", "replication", "write vs restart availability", (),
        lambda a: _experiments().run_availability_grid(),
        _render_a5, _check_a5),
    Experiment(
        "A6", "space", "log space management strategies", (),
        lambda a: _experiments().run_space_management(
            transactions=100, dump_every=30),
        _render_a6, _check_a6),
    Experiment(
        "A7", "multicast", "multicast vs unicast force delivery", (),
        lambda a: _experiments().run_multicast_ablation(
            clients=20, copies=2, forces_per_client=50),
        _render_a7, _check_a7),
    Experiment(
        "A8", "commit", "2PC vs a common commit coordinator", (),
        _run_a8, _render_a8, _check_a8),
    Experiment(
        "A9", "sweep", "offered-load saturation sweep",
        (Param("--duration", 2.0),),
        lambda a: _experiments().run_load_sweep(duration_s=a.duration),
        _render_a9, _check_a9),
)
