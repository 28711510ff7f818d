"""The crash-point sweep harness: the in-process phase, the one
daemon-phase case whose armed point fires on the workload's last call,
and single cases that must fail by name rather than abort the sweep
(the phases themselves spawn real subprocesses by the dozen and run in
CI as ``repro crashsweep --quick``)."""

from __future__ import annotations

import errno
import json
import subprocess
from pathlib import Path

from repro.harness import crashsweep, sweep
from repro.harness.crashsweep import (
    _DAEMON_COMBINED,
    SweepConfig,
    _payloads,
    _run_case,
    client_phase,
    daemon_phase,
    run_crashsweep,
    storage_phase,
)
from repro.rt.client import AsyncReplicatedLog
from repro.rt.faultspec import parse_plan
from repro.rt.filestore import FileLogStore

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
            "compact.dirsync", "log.write.install",
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
    """The last point the workload reaches fires inside its final
    ForceLog, so the workload returns while the dying daemon still
    polls alive; read as "point not reached", the case was skipped and
    the crash in the last group fsync never verified."""
    last = daemon_phase(tmp_path / "enumerate").enumerate()[-1]
    assert last.site == "log.group-fsync"
    case = daemon_phase(tmp_path).run_case(0, (last.arm(),))
    assert case.hit
    assert case.ok, case.errors


def test_daemon_case_torn_compaction_then_power_loss(tmp_path):
    """A torn ``compact.write`` stays invisible when power is lost
    before ``compact.rename`` installs the rewritten log."""
    case = daemon_phase(tmp_path).run_case(0, _DAEMON_COMBINED[0])
    assert case.hit
    assert case.ok, case.errors


def test_daemon_case_fails_on_a_scan_that_skips_a_record(tmp_path,
                                                         monkeypatch):
    """``scan-complete`` is live: the same case passes, then fails by
    name once ``read_forward`` drops the second record of each reply."""
    plan = parse_plan("log.fsync:0:power-loss")
    case = daemon_phase(tmp_path / "honest").run_case(0, plan)
    assert case.hit and case.ok, case.errors

    read_forward = AsyncReplicatedLog.read_forward

    async def drops_one(self, lsn):
        records = await read_forward(self, lsn)
        return records[:1] + records[2:] if len(records) > 2 else records

    monkeypatch.setattr(AsyncReplicatedLog, "read_forward", drops_one)
    case = daemon_phase(tmp_path / "lossy").run_case(0, plan)
    assert case.hit and not case.ok
    assert case.errors and all(error.startswith("scan-complete: ")
                               for error in case.errors), case.errors


def test_a_hung_client_worker_fails_its_case(tmp_path, monkeypatch):
    """A worker past ``_run_worker``'s bound fails its own case instead
    of aborting the sweep and every other case's verdict."""
    def hang(*args, **kwargs):
        raise subprocess.TimeoutExpired("clientworker", 120.0)

    monkeypatch.setattr(sweep, "_run_worker", hang)
    case = client_phase(tmp_path).run_case(
        0, parse_plan("client.force.ack:0:exit"))
    assert not case.ok
    assert case.errors[0].startswith("live: client worker hung")


def test_a_store_that_fails_its_second_reopen_fails_its_case(tmp_path,
                                                             monkeypatch):
    """The continuation check's reopen failing is the case's failure,
    not an exception out of the sweep."""
    reopened = []

    class SecondReopenFails(FileLogStore):
        def __init__(self, data_dir, server_id, *, io=None):
            if io is None:
                reopened.append(data_dir)
                if len(reopened) == 2:
                    raise OSError(errno.EIO, "second reopen")
            super().__init__(data_dir, server_id, io=io)

    monkeypatch.setattr(crashsweep, "FileLogStore", SecondReopenFails)
    # An index the workload never reaches: a clean run, then the check.
    case = _run_case(tmp_path, parse_plan("log.fsync:999:power-loss"),
                     _payloads(0))
    assert len(reopened) == 2
    assert not case.ok
    assert case.errors == [
        "continuation: reopen failed: OSError(5, 'second reopen')"]
