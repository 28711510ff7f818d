"""Tests for FIFO resources and channels."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.resources import Channel, Resource


class TestResource:
    def test_serializes_holders(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        finish = []

        def worker(tag):
            yield from res.use(2.0)
            finish.append((tag, sim.now))

        for tag in ("a", "b", "c"):
            sim.spawn(worker(tag))
        sim.run()
        assert finish == [("a", 2.0), ("b", 4.0), ("c", 6.0)]

    def test_capacity_two_runs_pairs(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finish = []

        def worker(tag):
            yield from res.use(1.0)
            finish.append((tag, sim.now))

        for tag in "abcd":
            sim.spawn(worker(tag))
        sim.run()
        assert [t for _, t in finish] == [1.0, 1.0, 2.0, 2.0]

    def test_utilization_full(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(5.0)

        sim.spawn(worker())
        sim.run()
        assert res.utilization() == pytest.approx(1.0)

    def test_utilization_half(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(5.0)

        sim.spawn(worker())
        sim.run(until=10.0)
        assert res.utilization() == pytest.approx(0.5)

    def test_busy_integral_windows(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield sim.timeout(2)
            yield from res.use(3.0)

        sim.spawn(worker())
        sim.run(until=2)
        start = res.busy_integral()
        sim.run(until=10)
        assert res.busy_integral() - start == pytest.approx(3.0)

    def test_mean_wait(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(4.0)

        sim.spawn(worker())
        sim.spawn(worker())
        sim.run()
        # first waits 0, second waits 4
        assert res.mean_wait() == pytest.approx(2.0)

    def test_use_returns_queueing_delay(self):
        sim = Simulator()
        res = Resource(sim)
        waits = []

        def worker():
            waited = yield from res.use(3.0)
            waits.append(waited)

        sim.spawn(worker())
        sim.spawn(worker())
        sim.run()
        assert waits == [0.0, 3.0]

    def test_release_idle_rejected(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_capacity_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_total_served(self):
        sim = Simulator()
        res = Resource(sim)

        def worker():
            yield from res.use(1.0)

        for _ in range(3):
            sim.spawn(worker())
        sim.run()
        assert res.total_served == 3


class TestChannel:
    def test_put_then_get(self):
        sim = Simulator()
        ch = Channel(sim)
        ch.put("x")

        def getter():
            value = yield ch.get()
            return value

        p = sim.spawn(getter())
        sim.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        ch = Channel(sim)

        def getter():
            value = yield ch.get()
            return (value, sim.now)

        def putter():
            yield sim.timeout(3)
            ch.put("late")

        g = sim.spawn(getter())
        sim.spawn(putter())
        sim.run()
        assert g.value == ("late", 3.0)

    def test_fifo_order(self):
        sim = Simulator()
        ch = Channel(sim)
        for i in range(3):
            ch.put(i)
        got = []

        def getter():
            for _ in range(3):
                value = yield ch.get()
                got.append(value)

        sim.spawn(getter())
        sim.run()
        assert got == [0, 1, 2]

    def test_max_depth_tracked(self):
        sim = Simulator()
        ch = Channel(sim)
        for i in range(5):
            ch.put(i)
        assert ch.max_depth == 5
        assert len(ch) == 5

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        ch = Channel(sim)
        results = []

        def getter(tag):
            value = yield ch.get()
            results.append((tag, value))

        sim.spawn(getter("g1"))
        sim.spawn(getter("g2"))

        def putter():
            yield sim.timeout(1)
            ch.put("a")
            ch.put("b")

        sim.spawn(putter())
        sim.run()
        assert results == [("g1", "a"), ("g2", "b")]
