"""The crash-point sweep harness: the in-process phase, and the one
daemon-phase case whose armed point fires on the workload's last call
(the other phases spawn real subprocesses by the dozen and run in CI
as ``repro crashsweep --quick``)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.crashsweep import (
    _DAEMON_COMBINED,
    SweepConfig,
    _daemon_case,
    _payloads,
    run_crashsweep,
    storage_phase,
)

#: the committed seed-0 enumeration: the gate a refactor must hold.
_BASELINE = json.loads(
    (Path(__file__).parents[2] / "BENCH_crashsweep.json").read_text())


def test_quick_sweep_passes_all_invariants(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), quick=True, phases=("storage",),
    ))
    # The enumeration is a gate, not a floor: a change that adds,
    # drops or fuses an I/O point must re-baseline deliberately.
    assert _BASELINE["params"]["seed"] == report.seed == 0
    storage = report.phase("storage")
    assert storage.points == _BASELINE["metrics"]["points_enumerated"]
    assert len(storage.sites) == _BASELINE["metrics"]["sites"]
    assert {"log.write.record", "log.fsync", "compact.rename",
            "compact.dirsync", "forest.write", "log.write.install",
            "log.write.truncate", "dir.create-sync"} <= set(storage.sites)
    assert report.cases_run > 0
    assert report.failures == [], [c.as_dict() for c in report.failures]


def test_single_point_replay(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="log.fsync:1:short-write",
    ))
    (case,) = report.cases()
    assert list(report.phases) == ["storage"]
    assert case.spec == "log.fsync:1:short-write"
    assert case.ok, case.errors


def test_point_replay_defaults_to_power_loss(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="log.write.record:0",
    ))
    (case,) = report.cases("storage")
    assert case.spec == "log.write.record:0:power-loss"
    assert case.ok, case.errors


def test_seed_changes_payloads_not_points(tmp_path):
    traces = [
        storage_phase(tmp_path / str(seed), _payloads(seed)).enumerate()
        for seed in (0, 1)
    ]
    assert _payloads(0) != _payloads(1)
    assert traces[0] == traces[1]
    assert len(traces[0]) == _BASELINE["metrics"]["points_enumerated"]


def test_report_as_dict_is_json_shaped(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="log.open:0",
    ))
    payload = json.loads(json.dumps(report.as_dict()))
    assert sorted(payload) == sorted((
        "seed", "quick", "points_enumerated", "sites", "cases_run",
        "daemon_points_enumerated", "daemon_cases",
        "client_points_enumerated", "client_sites", "client_cases",
        "combined_cases_run", "net_points_enumerated", "net_sites",
        "net_cases", "net_partition_cases", "net_handoff_cases",
        "fuzz_cases", "failures", "duration_s"))
    assert payload["cases_run"] == 1
    assert payload["failures"] == []


def test_daemon_case_waits_for_an_exit_on_the_last_call(tmp_path):
    """``compact.rename:0`` fires inside the workload's final
    TruncateLog, so the workload returns while the dying daemon still
    polls alive; read as "point not reached", the case was skipped and
    the torn-then-power-loss compaction never verified."""
    case = _daemon_case(tmp_path, 0, _DAEMON_COMBINED[0])
    assert case.hit
    assert case.ok, case.errors
