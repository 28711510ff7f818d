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

    assert len(report.cases("fuzz")) == 20
    assert report.failures == [], [c.as_dict() for c in report.failures]
    params = {"quick": SMOKE, "seed": report.seed, "fuzz": 20}
    metrics = {
        "net_points_enumerated": net.points,
        "net_sites": len(net.sites),
        "net_cases_run": len(net_cases),
        "partition_cases_run": len(report.cases("partition")),
        "fuzz_cases_run": len(report.cases("fuzz")),
        "failures": len(report.failures),
        "sweep_seconds": round(report.duration_s, 3),
    }
    _gate("netsweep", params, metrics)

    emit_table(
        ["network site", "frames"],
        sorted(net.sites.items()),
        title=f"frame-point coverage ({'quick' if SMOKE else 'full'})",
    )
    emit(f"[bench] {net.points} frame points, {len(net_cases)} net cases "
         f"({metrics['partition_cases_run']} partition-switch), "
         f"{metrics['fuzz_cases_run']} fuzz cases, {wall:.1f}s")
    emit_json("netsweep", {"params": params, "metrics": metrics,
                           "wall_seconds": wall})
