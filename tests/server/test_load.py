"""Tests for shedding and assignment strategies."""

import random

from repro.server.load import (
    LeastLoadedAssignment,
    NvramBackpressure,
    RandomAssignment,
    StickyAssignment,
)
from repro.sim.kernel import Simulator
from repro.storage.nvram import NvramBuffer


class TestShedding:
    def test_nvram_backpressure(self):
        nvram = NvramBuffer(Simulator(), capacity_bytes=8 * 1024,
                            reserved_for_intervals=1024)
        policy = NvramBackpressure(nvram)
        assert not policy.should_shed(1000)
        nvram.append(nvram.data_capacity - 500)
        assert policy.should_shed(1000)
        assert not policy.should_shed(400)


class TestAssignment:
    SERVERS = ["s0", "s1", "s2", "s3"]

    def test_sticky_prefers_given_order(self):
        strategy = StickyAssignment(["s2", "s0"])
        assert strategy.choose(self.SERVERS, 2, {}) == ["s2", "s0"]

    def test_sticky_falls_back_sorted(self):
        strategy = StickyAssignment(["s9"])  # not in pool
        assert strategy.choose(self.SERVERS, 2, {}) == ["s0", "s1"]

    def test_random_respects_n(self):
        strategy = RandomAssignment(random.Random(0))
        chosen = strategy.choose(self.SERVERS, 2, {})
        assert len(chosen) == 2
        assert set(chosen) <= set(self.SERVERS)

    def test_random_varies(self):
        strategy = RandomAssignment(random.Random(0))
        picks = {tuple(strategy.choose(self.SERVERS, 2, {}))
                 for _ in range(20)}
        assert len(picks) > 1

    def test_least_loaded_sorts_by_load(self):
        strategy = LeastLoadedAssignment()
        loads = {"s0": 9.0, "s1": 1.0, "s2": 5.0}
        assert strategy.choose(self.SERVERS, 2, loads) == ["s3", "s1"]

    def test_least_loaded_ties_break_by_name(self):
        strategy = LeastLoadedAssignment()
        assert strategy.choose(self.SERVERS, 3, {}) == ["s0", "s1", "s2"]
