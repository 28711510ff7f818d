"""Tests for named seeded random streams."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_same_stream(self):
        reg = RngRegistry(7)
        assert reg.stream("a") is reg.stream("a")

    def test_different_names_independent(self):
        reg = RngRegistry(7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_registries(self):
        r1 = RngRegistry(42)
        r2 = RngRegistry(42)
        assert [r1.stream("x").random() for _ in range(5)] == [
            r2.stream("x").random() for _ in range(5)
        ]

    def test_master_seed_changes_streams(self):
        r1 = RngRegistry(1)
        r2 = RngRegistry(2)
        assert r1.stream("x").random() != r2.stream("x").random()

    def test_adding_stream_does_not_perturb_existing(self):
        r1 = RngRegistry(3)
        first = r1.stream("a").random()
        r2 = RngRegistry(3)
        r2.stream("zzz")  # extra stream created first
        assert r2.stream("a").random() == first

    def test_exponential_positive(self):
        reg = RngRegistry(0)
        draws = [reg.exponential("arrivals", 2.0) for _ in range(100)]
        assert all(d > 0 for d in draws)
        assert 1.0 < sum(draws) / len(draws) < 3.5  # mean ≈ 2

    def test_uniform_bounds(self):
        reg = RngRegistry(0)
        draws = [reg.uniform("u", 3.0, 4.0) for _ in range(50)]
        assert all(3.0 <= d <= 4.0 for d in draws)

    def test_coin_extremes(self):
        reg = RngRegistry(0)
        assert not any(reg.coin("never", 0.0) for _ in range(20))
        assert all(reg.coin("always", 1.0) for _ in range(20))
