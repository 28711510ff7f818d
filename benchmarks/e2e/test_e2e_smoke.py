"""Smoke test of the benchmark itself (not collected by tier-1).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Runs every workload at ``--smoke`` size with its traced pass, and
checks what ``BENCHMARK.json`` promises: every named metric and
workload is emitted once with its unit and a finite value, the span
files are well formed, and the workloads really do stress different
layers.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import run, tracing
from benchmarks.e2e.harness import HERE, ROOT
from benchmarks.e2e.workloads import WORKLOADS

SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: emitted for the report only, deliberately not in BENCHMARK.json
REPORT_ONLY = {"bench.preload_s"}


@pytest.fixture(scope="module")
def contract() -> dict:
    return run.load_contract()


@pytest.fixture(scope="module")
def docs(tmp_path_factory) -> dict[str, dict]:
    root = tmp_path_factory.mktemp("e2e")
    return {name: run.measure(name, SEED, 2.0, str(root / name),
                              traced=True, smoke=True)
            for name in WORKLOADS}


def test_contract_names_the_workloads(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_every_workload_is_correct(docs):
    for name, doc in docs.items():
        assert doc["failed"] == 0, (name, doc["problems"])
        assert doc["attempted"] >= 1


def test_every_end_to_end_metric_is_emitted(docs, contract):
    for name, doc in docs.items():
        line = run.driver_line(doc, contract, trace=False)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"], name
        assert set(line["metrics"]) == \
            {m["name"] for m in contract["end_to_end"]}
        for spec in contract["end_to_end"]:
            value, unit = doc["end_to_end"][spec["name"]]
            assert unit == spec["unit"], (name, spec["name"])
            assert math.isfinite(value) and value > 0, (name, spec["name"])


def test_every_per_layer_metric_is_emitted_once(docs, contract):
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    measured_somewhere: set[str] = set()
    for name, doc in docs.items():
        produced = [metric for source in doc["per_layer"].values()
                    for metric in source]
        assert len(produced) == len(set(produced)), name
        for metric, (value, unit) in run.flat_layers(doc).items():
            assert NAME.match(metric), metric
            assert math.isfinite(value), (name, metric)
            if metric in REPORT_ONLY:
                continue
            assert units.get(metric) == unit, (name, metric, unit)
            if value:
                measured_somewhere.add(metric)
        line = run.driver_line(doc, contract, trace=True)
        assert set(line["metrics"]) == set(units)
    assert measured_somewhere == set(units)


def test_spans_are_well_formed(docs):
    for name, doc in docs.items():
        if name == "sim_target_load":
            continue
        spans = tracing.load_spans(doc["traced_notes"]["span_dir"])
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        tracing.annotate_self_times(spans)
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            assert span["self_ns"] >= 0, (name, span)
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start_ns"] <= span["start_ns"], (name, span)
                assert span["end_ns"] <= parent["end_ns"], (name, span)
        # every fsync of the load phase is one rt.filestore.sync span
        assert doc["traced_notes"]["sync_spans_in_load"] == \
            doc["traced_notes"]["fsyncs_in_load"], name


def test_workloads_stress_different_layers(docs):
    def layer(workload: str, metric: str) -> float:
        return docs[workload]["per_layer"]["cpu"][metric][0]

    assert layer("et1_solo", "rt.server.forces_per_group") == \
        pytest.approx(1.0, rel=0.02)
    assert layer("et1_fleet4", "rt.server.forces_per_group") > 1.0
    assert layer("bulk_stream", "rt.filestore.user_bytes_per_fsync") >= \
        20 * layer("et1_solo", "rt.filestore.user_bytes_per_fsync")


def test_driver_command_prints_the_result_line(contract):
    done = subprocess.run(
        contract["command"] + ["--workload", "sim_target_load", "--seed",
                               str(SEED), "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    for spec in contract["end_to_end"]:
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_without_the_program_the_command_fails(contract, tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's
    files has nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable if part == "python3" else part
         for part in contract["command"]]
        + ["--workload", "et1_solo", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
