"""Crash-point sweep as a trajectory benchmark (EXPERIMENTS.md E14).

Runs the deterministic storage-fault sweep of
:mod:`repro.harness.crashsweep` and reports its coverage — how many
distinct I/O crash points the scripted workload exposes, how many
(point, action) cases were executed, and how long the sweep takes.
The numbers matter as a trajectory: a storage-layer change that
silently *removes* crash points (an fsync dropped, a rename fused)
shows up here as a falling ``points_enumerated`` long before it shows
up as a durability bug.

``REPRO_RT_SMOKE=1`` runs the quick subset (first/last point per
site, three daemon points) for CI; the full sweep runs every
enumerated point.  Zero failures is an assertion, not a metric — a
failing case is a durability bug and must fail the build.

The counts are a **gate**, not only a trajectory: when the committed
``BENCH_<name>.json`` was recorded with the same ``params`` as this
run, every count must equal it, and a mismatch fails *before* the file
is rewritten — so a refactor that shifts a point cannot silently
re-baseline.  To re-baseline on purpose, delete the JSON first.
"""

from __future__ import annotations

import json
import os
import time

from repro.harness.crashsweep import SweepConfig, run_crashsweep

from ._emit import REPO_ROOT, emit, emit_json, emit_table

SMOKE = bool(os.environ.get("REPRO_RT_SMOKE"))

#: metrics that are timings, not counts.
_TIMINGS = ("sweep_seconds",)


def _gate(bench: str, params: dict, metrics: dict) -> None:
    """Fail if ``metrics`` moved from the committed run of ``params``."""
    path = REPO_ROOT / f"BENCH_{bench}.json"
    if not path.exists():
        return
    committed = json.loads(path.read_text())
    if committed["params"] != params:
        return
    moved = {name: (committed["metrics"].get(name), value)
             for name, value in metrics.items()
             if name not in _TIMINGS
             and committed["metrics"].get(name) != value}
    assert not moved, (
        f"BENCH_{bench}.json (params {params}) no longer matches, as "
        f"metric: (committed, measured): {moved}")


def test_bench_crashsweep(tmp_path):
    start = time.perf_counter()
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), quick=SMOKE,
        phases=("storage", "daemon", "client"),
    ))
    wall = time.perf_counter() - start
    storage, daemon, client = (report.phase(name) for name in
                               ("storage", "daemon", "client"))

    assert report.failures == [], [c.as_dict() for c in report.failures]
    params = {"quick": SMOKE, "seed": report.seed}
    metrics = {
        "points_enumerated": storage.points,
        "daemon_points_enumerated": daemon.points,
        "client_points_enumerated": client.points,
        "client_sites": len(client.sites),
        "sites": len(storage.sites),
        "cases_run": report.cases_run,
        "daemon_cases_run": len(daemon.cases),
        "client_cases_run": len(client.cases),
        "combined_cases_run": daemon.combined + client.combined,
        "failures": len(report.failures),
        "sweep_seconds": round(report.duration_s, 3),
    }
    _gate("crashsweep", params, metrics)

    emit_table(
        ["site", "points"],
        sorted(storage.sites.items()),
        title=f"crash sweep coverage ({'quick' if SMOKE else 'full'})",
    )
    emit_table(
        ["client site", "points"],
        sorted(client.sites.items()),
        title="client protocol crash-point coverage",
    )
    emit(f"[bench] {len(storage.cases)} in-process cases, "
         f"{len(daemon.cases)} daemon cases, "
         f"{len(client.cases)} client cases "
         f"({metrics['combined_cases_run']} combined), {wall:.1f}s")
    emit_json("crashsweep", {"params": params, "metrics": metrics,
                             "wall_seconds": wall})


def test_bench_netsweep(tmp_path):
    """Network-phase coverage (EXPERIMENTS.md E18).

    Frame points enumerated, (point, action) cases run against real
    daemons, §5.4 partition-switch cases, and a 20-case fixed-seed
    multi-fault fuzz pass.  The trajectory signal mirrors E14: a codec
    or client change that silently removes frame points (a message
    fused, an ack elided) shows up as falling ``net_points`` before it
    becomes a lost-ack bug.
    """
    start = time.perf_counter()
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), quick=SMOKE, phases=("net",),
        fuzz=20, seed=0,
    ))
    wall = time.perf_counter() - start
    net = report.phase("net")
    net_cases = report.cases("net", "partition", "handoff")

    fuzz = report.cases("fuzz")
    assert len(fuzz) == 20
    assert report.failures == [], [c.as_dict() for c in report.failures]
    params = {"quick": SMOKE, "seed": report.seed, "fuzz": 20}
    metrics = {
        "net_points_enumerated": net.points,
        "net_sites": len(net.sites),
        "net_cases_run": len(net_cases),
        "partition_cases_run": len(report.cases("partition")),
        "fuzz_cases_run": len(fuzz),
        "fuzz_cases_hit": sum(case.hit for case in fuzz),
        "failures": len(report.failures),
        "sweep_seconds": round(report.duration_s, 3),
    }
    _gate("netsweep", params, metrics)
    # A drawn plan arms only points its recording runs fired: a miss
    # is a harness bug, not bad luck.
    assert metrics["fuzz_cases_hit"] == 20, [
        case.point for case in fuzz if not case.hit]

    emit_table(
        ["network site", "frames"],
        sorted(net.sites.items()),
        title=f"frame-point coverage ({'quick' if SMOKE else 'full'})",
    )
    emit(f"[bench] {net.points} frame points, {len(net_cases)} net cases "
         f"({metrics['partition_cases_run']} partition-switch), "
         f"{metrics['fuzz_cases_run']} fuzz cases "
         f"({metrics['fuzz_cases_hit']} hit), {wall:.1f}s")
    emit_json("netsweep", {"params": params, "metrics": metrics,
                           "wall_seconds": wall})


#: the 20 seed-0 plans of the blind fuzz planner (storage and client
#: indices drawn without a recording, frame indices from s1's clean
#: run), which fired every armed spec in only 3 cases.  A regression
#: list: each must stay green; its hit is reported, not asserted.
BLIND_FUZZ_PLANS = (
    "s2@net.intervallistcall.c2s:1:truncate-mid-frame,"
    "s2@log.write.record:2:eio,client.force.ack:0:raise",
    "s1@net.fencelog.c2s:0:corrupt-header,s2@log.write.fence:1:power-loss",
    "s2@net.newhighlsn.s2c:0:duplicate,s1@log.fsync:3:eio",
    "s3@net.forcelog.c2s:1:delay,s2@log.group-fsync:4:power-loss",
    "s1@net.readlogforward.c2s:1:drop,"
    "s2@net.readlogforward.c2s:2:kill-connection-after",
    "s1@net.newhighlsn.s2c:2:kill-connection-after,"
    "s1@net.genwritecall.c2s:0:drop,"
    "s1@net.genwritecall.c2s:1:truncate-mid-frame,"
    "s2@net.genreadreply.s2c:1:delay",
    "s3@net.forcelog.c2s:2:partition-after,"
    "s3@net.ack.s2c:1:kill-connection-after,"
    "s1@net.readlogreply.s2c:2:corrupt-header,"
    "client.recovery.copylog:1:raise",
    "s1@net.fencereply.s2c:0:truncate-mid-frame,"
    "s3@net.fencelog.c2s:0:drop,client.recovery.copylog:0:raise",
    "s1@net.readlogforward.c2s:0:partition-after,"
    "s1@net.forcelog.c2s:0:kill-connection-after",
    "s2@net.truncatelog.c2s:0:truncate-mid-frame,s2@log.fsync:1:power-loss,"
    "client.handoff.epoch:0:raise",
    "s1@net.truncatereply.s2c:0:corrupt-header,"
    "s1@net.genwritecall.c2s:1:corrupt-header,s1@log.write.record:4:eio,"
    "client.handoff.fence.ack:1:raise",
    "s3@net.genreadreply.s2c:0:partition-after,s1@log.write.record:3:eio,"
    "client.handoff.fence.ack:1:raise",
    "s2@net.writelog.c2s:2:duplicate,s2@net.newhighlsn.s2c:1:partition-after,"
    "client.handoff.epoch:0:raise",
    "s1@net.genreadcall.c2s:0:kill-connection-after,"
    "s1@net.genreadreply.s2c:1:corrupt-header,s1@net.ack.s2c:1:drop",
    "s2@net.fencelog.c2s:0:corrupt-header,s1@log.group-fsync:5:eio",
    "s1@net.copylog.c2s:0:drop,s2@net.forcelog.c2s:2:corrupt-header",
    "s1@net.intervallistcall.c2s:1:corrupt-header,"
    "s1@net.installcopies.c2s:0:drop,"
    "s1@net.intervallistreply.s2c:2:partition-after",
    "s2@net.intervallistcall.c2s:1:delay,"
    "s2@net.readlogreply.s2c:1:kill-connection-after,"
    "s1@net.copylog.c2s:0:duplicate,s2@log.write.record:0:power-loss",
    "s1@net.truncatelog.c2s:1:delay,client.handoff.epoch:1:raise",
    "s1@net.writelog.c2s:0:kill-connection-after,"
    "s1@net.writelog.c2s:1:truncate-mid-frame,"
    "s2@net.readlogreply.s2c:1:delay,s2@log.write.record:4:power-loss",
)


def test_blind_fuzz_plans_stay_green(tmp_path):
    """Every blind-planner plan, replayed through ``--plan``."""
    rows = []
    for n, plan in enumerate(BLIND_FUZZ_PLANS):
        report = run_crashsweep(SweepConfig(root_dir=str(tmp_path / str(n)),
                                            plan=plan))
        (case,) = report.cases("fuzz")
        assert case.ok, (plan, case.errors)
        rows.append((plan, "hit" if case.hit else "miss"))
    emit_table(["blind seed-0 plan", "armed specs"], rows,
               title=f"{sum(row[1] == 'hit' for row in rows)} of "
                     f"{len(rows)} blind fuzz plans hit")
