"""Tests for the long-transaction and arrival generators."""

import random

import pytest

from repro.client.backends import DirectLogBackend
from repro.client.node import ClientNode
from repro.client.splitting import UndoCache
from repro.sim.kernel import Simulator
from repro.sim.stats import MetricSet
from repro.workload.generators import (
    LongTransactionDriver,
    LongTxnParams,
    PoissonArrivals,
    transactional_mix,
)

from ..conftest import build_direct_log, drain


class TestLongTransactionDriver:
    def run_driver(self, params, n=10, seed=0):
        sim = Simulator()
        log, _ = build_direct_log(delta=64)
        metrics = MetricSet()
        driver = LongTransactionDriver(
            sim, DirectLogBackend(log), random.Random(seed), metrics,
            params=params,
        )
        sim.spawn(driver.run(n))
        sim.run(until=600)
        return driver, log, metrics

    def test_completes_requested_transactions(self):
        params = LongTxnParams(updates_min=5, updates_max=10,
                               abort_probability=0.0)
        driver, log, _ = self.run_driver(params)
        assert driver.completed == 10
        assert driver.aborted == 0

    def test_aborts_happen_with_probability(self):
        params = LongTxnParams(updates_min=5, updates_max=10,
                               abort_probability=0.8)
        driver, _, _ = self.run_driver(params, n=20, seed=3)
        assert driver.aborted > 5

    def test_savepoints_force_periodically(self):
        params = LongTxnParams(updates_min=50, updates_max=50,
                               savepoint_every=10, abort_probability=0.0)
        _, log, _ = self.run_driver(params, n=2)
        # 50 updates + 5 savepoints + 1 commit per txn
        assert log.writes_performed == 2 * 56

    def test_latencies_split_by_outcome(self):
        params = LongTxnParams(updates_min=5, updates_max=5,
                               abort_probability=0.5)
        driver, _, metrics = self.run_driver(params, n=20, seed=1)
        assert metrics.latency("long.txn").count == driver.completed
        assert metrics.latency("long.abort").count == driver.aborted


class TestTransactionalMix:
    def test_runs_over_recovery_manager(self):
        node, _ = ClientNode.direct(delta=64, undo_cache=UndoCache())
        params = LongTxnParams(updates_min=3, updates_max=6,
                               abort_probability=0.0, keys=50)
        rng = random.Random(0)
        for _ in range(5):
            aborted = drain(transactional_mix(node, rng, params))
            assert not aborted
        assert node.rm.records_logged > 5 * 5

    def test_aborted_mix_rolls_back(self):
        node, _ = ClientNode.direct(delta=64, undo_cache=UndoCache())
        params = LongTxnParams(updates_min=3, updates_max=3,
                               abort_probability=1.0, keys=5)
        rng = random.Random(1)
        aborted = drain(transactional_mix(node, rng, params))
        assert aborted
        assert node.rm.local_aborts == 1


class TestPoissonArrivals:
    def test_spawns_jobs_at_rate(self):
        sim = Simulator()
        arrivals = PoissonArrivals(sim, rate_per_s=50,
                                   rng=random.Random(0))
        ran = []

        def job():
            ran.append(sim.now)
            yield sim.timeout(0)

        proc = sim.spawn(arrivals.run(lambda: job(), duration_s=2.0))
        sim.run(until=10)
        assert proc.value == arrivals.spawned == len(ran)
        assert 60 <= len(ran) <= 140  # ≈ 100 ± noise

    def test_invalid_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PoissonArrivals(sim, rate_per_s=0, rng=random.Random(0))
