"""Tests for the ET1 workload generator."""

import random

import pytest

from repro.analysis.constants import ET1_BYTES_PER_TXN, ET1_RECORDS_PER_TXN
from repro.client.backends import DirectLogBackend
from repro.client.node import ClientNode
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet
from repro.workload.et1 import Et1Driver, Et1Params, et1_log_pattern, et1_transaction

from ..conftest import build_direct_log, drain


class TestEt1LogPattern:
    def test_paper_shape(self):
        """7 records, 700 bytes, one force (the TABS profile)."""
        pattern = et1_log_pattern()
        assert len(pattern) == ET1_RECORDS_PER_TXN == 7
        assert sum(len(data) for data, _k, _f in pattern) == ET1_BYTES_PER_TXN
        forces = [forced for _d, _k, forced in pattern]
        assert forces == [False] * 6 + [True]

    def test_only_commit_forced(self):
        pattern = et1_log_pattern()
        assert pattern[-1][1] == "commit"
        assert all(kind == "update" for _d, kind, _f in pattern[:-1])

    def test_custom_shape(self):
        params = Et1Params(records_per_txn=3, bytes_per_record=50)
        pattern = et1_log_pattern(params)
        assert len(pattern) == 3
        assert all(len(data) == 50 for data, _k, _f in pattern)

    def test_sequence_distinguishes_txns(self):
        a = et1_log_pattern(txn_seq=1)
        b = et1_log_pattern(txn_seq=2)
        assert a[0][0] != b[0][0]


class TestEt1Driver:
    def test_driver_over_direct_backend(self):
        """ET1 against the core algorithm (timing-free)."""
        sim = Simulator()
        log, _ = build_direct_log(m=3, n=2, delta=16)
        backend = DirectLogBackend(log)
        metrics = MetricSet()
        driver = Et1Driver(sim, backend, tps=100,
                           rng=random.Random(0), metrics=metrics)

        def main():
            completed = yield from driver.run(duration_s=1.0)
            return completed

        proc = sim.spawn(main())
        sim.run(until=30)
        assert proc.value == driver.completed
        assert driver.completed > 50
        # each transaction wrote 7 records
        assert log.writes_performed == driver.completed * 7

    def test_latency_recorded(self):
        sim = Simulator()
        log, _ = build_direct_log(delta=16)
        metrics = MetricSet()
        driver = Et1Driver(sim, DirectLogBackend(log), tps=50,
                           rng=random.Random(1), metrics=metrics,
                           name="etx")
        sim.spawn(driver.run(2.0))
        sim.run(until=30)
        assert metrics.latency("etx.txn").count == driver.completed

    def test_invalid_tps(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Et1Driver(sim, None, tps=0, rng=random.Random(0),
                      metrics=MetricSet())


class TestEt1Transaction:
    def test_debit_credit_updates_all_rows(self):
        node, _ = ClientNode.direct(delta=16)
        params = Et1Params(branches=2, tellers_per_branch=2,
                           accounts_per_branch=10)
        rng = random.Random(0)
        txn = drain(et1_transaction(node, params, rng))
        # account, teller, branch, history
        assert txn.records_written == 6  # begin + 4 updates + commit
        keys = set(node.db.cache)
        assert any(k.startswith("account:") for k in keys)
        assert any(k.startswith("teller:") for k in keys)
        assert any(k.startswith("branch:") for k in keys)
        assert any(k.startswith("history:") for k in keys)

    def test_amounts_accumulate(self):
        node, _ = ClientNode.direct(delta=16)
        params = Et1Params(branches=1, tellers_per_branch=1,
                           accounts_per_branch=1)
        rng = random.Random(2)
        total = 0
        for _ in range(5):
            drain(et1_transaction(node, params, rng))
        branch_total = int(node.read("branch:0"))
        account_total = int(node.read("account:0:0"))
        assert branch_total == account_total  # same stream of amounts

    def test_survives_crash_recovery(self):
        node, _ = ClientNode.direct(delta=16)
        params = Et1Params(branches=1, tellers_per_branch=1,
                           accounts_per_branch=1)
        rng = random.Random(3)
        for _ in range(3):
            drain(et1_transaction(node, params, rng))
        value = node.read("account:0:0")
        node.crash()
        drain(node.restart())
        assert node.db.stable["account:0:0"] == value
