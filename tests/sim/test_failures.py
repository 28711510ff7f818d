"""Tests for failure injection."""

import random

import pytest

from repro.core.store import LogServerStore
from repro.sim.failures import (
    UpDownProcess,
    mttr_for_unavailability,
    unavailability,
)
from repro.sim.kernel import Simulator


class TestUnavailabilityMath:
    def test_long_run_fraction(self):
        assert unavailability(mtbf=95, mttr=5) == pytest.approx(0.05)

    def test_mttr_inverse(self):
        mttr = mttr_for_unavailability(mtbf=100, p=0.05)
        assert unavailability(100, mttr) == pytest.approx(0.05)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            unavailability(0, 5)
        with pytest.raises(ValueError):
            mttr_for_unavailability(10, 1.0)


class TestUpDownProcess:
    def test_drives_target_through_cycles(self):
        sim = Simulator()
        store = LogServerStore("s")
        proc = UpDownProcess(sim, store, mtbf=10, mttr=1,
                             rng=random.Random(0))
        sim.run(until=200)
        assert proc.crashes > 5

    def test_long_run_unavailability_near_model(self):
        sim = Simulator()
        store = LogServerStore("s")
        transitions = []
        proc = UpDownProcess(
            sim, store, mtbf=9.5, mttr=0.5, rng=random.Random(1),
            on_change=lambda up: transitions.append((sim.now, up)),
        )
        sim.run(until=5000)
        # integrate downtime from transitions
        down = 0.0
        last_down_start = None
        for t, up in transitions:
            if not up:
                last_down_start = t
            elif last_down_start is not None:
                down += t - last_down_start
                last_down_start = None
        assert down / 5000 == pytest.approx(0.05, abs=0.02)

    def test_stop_interrupts(self):
        sim = Simulator()
        store = LogServerStore("s")
        proc = UpDownProcess(sim, store, mtbf=10, mttr=1,
                             rng=random.Random(0))
        proc.stop()
        sim.run(until=100)
        assert proc.process.triggered


class RecordingNode:
    """A crashable that records every crash()/restart() call."""

    def __init__(self, up=True):
        self.available = up
        self.calls = []

    def crash(self):
        self.available = False
        self.calls.append("crash")

    def restart(self):
        self.available = True
        self.calls.append("restart")


class TestNodeIsUp:
    def test_probes_available_up_and_crashed(self):
        from repro.sim.failures import node_is_up

        store = LogServerStore("s")
        assert node_is_up(store) is True
        store.crash()
        assert node_is_up(store) is False

        class CrashedStyle:
            crashed = False

        assert node_is_up(CrashedStyle()) is True

        class Opaque:
            pass

        assert node_is_up(Opaque()) is None


class TestUpDownProcessHardening:
    def test_mttr_must_be_positive(self):
        sim = Simulator()
        store = LogServerStore("s")
        with pytest.raises(ValueError):
            UpDownProcess(sim, store, mtbf=10, mttr=0,
                          rng=random.Random(0))
        with pytest.raises(ValueError):
            UpDownProcess(sim, store, mtbf=0, mttr=1,
                          rng=random.Random(0))

    def test_for_unavailability_p_zero_means_no_injector(self):
        sim = Simulator()
        store = LogServerStore("s")
        injector = UpDownProcess.for_unavailability(
            sim, store, mtbf=10, p=0.0, rng=random.Random(0))
        assert injector is None
        assert store.available

    def test_stop_while_down_restores_target(self):
        sim = Simulator()
        store = LogServerStore("s")
        # repair takes ~forever: once down, the target stays down
        proc = UpDownProcess(sim, store, mtbf=2, mttr=1e9,
                             rng=random.Random(3))
        sim.run(until=100)
        assert not store.available
        assert proc.target_down
        proc.stop()
        sim.run(until=101)
        assert store.available
        assert not proc.target_down
        assert proc.process.triggered
        # downtime accounted up to the stop instant
        assert proc.down_time > 0

    def test_stop_skips_restart_when_manually_restored(self):
        sim = Simulator()
        node = RecordingNode()
        proc = UpDownProcess(sim, node, mtbf=2, mttr=1e9,
                             rng=random.Random(3))
        sim.run(until=100)
        assert not node.available
        node.restart()  # operator intervention, as the soak test does
        calls_before = len(node.calls)
        proc.stop()
        sim.run(until=101)
        # no redundant restart — it would re-run a server's crash scan
        assert node.calls[calls_before:] == []
        assert node.available


class TestLinkDegrader:
    def test_degrades_and_restores_loss(self):
        from repro.net.lan import Lan
        from repro.sim.failures import LinkDegrader

        sim = Simulator()
        lan = Lan(sim, loss_prob=0.01, rng=random.Random(0))
        degrader = LinkDegrader(lan, degraded_loss=0.8)
        assert degrader.up
        degrader.crash()
        assert lan.loss_prob == pytest.approx(0.8)
        assert not degrader.up
        degrader.crash()  # idempotent: healthy loss not overwritten
        degrader.restart()
        assert lan.loss_prob == pytest.approx(0.01)
        assert degrader.up

    def test_rejects_zero_loss(self):
        from repro.net.lan import Lan
        from repro.sim.failures import LinkDegrader

        sim = Simulator()
        lan = Lan(sim, rng=random.Random(0))
        with pytest.raises(ValueError):
            LinkDegrader(lan, degraded_loss=0.0)


class TestClusterChurn:
    def _run_churn(self, seed=0, until=200.0):
        from repro.sim.failures import ClusterChurn

        sim = Simulator()
        stores = {f"s{i}": LogServerStore(f"s{i}") for i in range(4)}
        transitions = []
        churn = ClusterChurn(
            sim, stores, mtbf=10, mttr=1, seed=seed,
            on_change=lambda tid, up: transitions.append((sim.now, tid, up)),
        )
        sim.run(until=until)
        return sim, stores, churn, transitions

    def test_histogram_sums_to_elapsed(self):
        sim, _stores, churn, _ = self._run_churn()
        total = sum(churn.down_histogram().values())
        assert total == pytest.approx(churn.elapsed)
        assert churn.crashes() > 10

    def test_deterministic_from_seed(self):
        _, _, churn_a, trans_a = self._run_churn(seed=7)
        _, _, churn_b, trans_b = self._run_churn(seed=7)
        assert trans_a == trans_b
        assert churn_a.down_histogram() == churn_b.down_histogram()
        _, _, _, trans_c = self._run_churn(seed=8)
        assert trans_a != trans_c

    def test_fraction_time_at_most_down(self):
        _, _, churn, _ = self._run_churn()
        # monotone in the threshold, and everything <= M is certain
        fracs = [churn.fraction_time_at_most_down(d) for d in range(5)]
        assert fracs == sorted(fracs)
        assert fracs[4] == pytest.approx(1.0)

    def test_stop_restores_everything(self):
        sim, stores, churn, _ = self._run_churn(until=57.0)
        churn.stop()
        sim.run(until=58.0)
        assert all(s.available for s in stores.values())
