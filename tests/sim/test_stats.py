"""Tests for metric collectors."""

import pytest

from repro.sim.stats import Counter, LatencySample, MetricSet, TimeWeighted


class TestCounter:
    def test_add_default_amount(self):
        c = Counter()
        c.add()
        c.add()
        assert c.count == 2
        assert c.total == 2.0

    def test_add_amounts(self):
        c = Counter()
        c.add(100)
        c.add(50)
        assert c.count == 2
        assert c.total == 150

    def test_rates(self):
        c = Counter()
        c.add(100)
        assert c.rate(10) == 10.0
        assert c.count_rate(10) == 0.1

    def test_zero_elapsed(self):
        c = Counter()
        c.add()
        assert c.rate(0) == 0.0


class TestLatencySample:
    def test_mean(self):
        lat = LatencySample()
        for v in (1.0, 2.0, 3.0):
            lat.observe(v)
        assert lat.mean() == pytest.approx(2.0)

    def test_empty_summaries(self):
        lat = LatencySample()
        assert lat.mean() == 0.0
        assert lat.p95() == 0.0
        assert lat.max() == 0.0
        assert lat.stdev() == 0.0

    def test_percentiles(self):
        lat = LatencySample()
        for v in range(1, 101):
            lat.observe(float(v))
        assert lat.p50() == pytest.approx(50.5)
        assert lat.percentile(0.0) == 1.0
        assert lat.percentile(1.0) == 100.0
        assert lat.p99() == pytest.approx(99.01)

    def test_invalid_quantile(self):
        lat = LatencySample()
        lat.observe(1.0)
        with pytest.raises(ValueError):
            lat.percentile(1.5)

    def test_negative_latency_rejected(self):
        lat = LatencySample()
        with pytest.raises(ValueError):
            lat.observe(-0.1)

    def test_stdev(self):
        lat = LatencySample()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            lat.observe(v)
        assert lat.stdev() == pytest.approx(2.138, abs=0.01)

    def test_count_and_len(self):
        lat = LatencySample()
        lat.observe(1.0)
        assert len(lat) == lat.count == 1


class TestTimeWeighted:
    def test_mean_level(self):
        tw = TimeWeighted()
        tw.set(10, now=5)   # level 0 for [0,5)
        tw.set(0, now=10)   # level 10 for [5,10)
        assert tw.mean(now=10) == pytest.approx(5.0)

    def test_peak(self):
        tw = TimeWeighted()
        tw.set(3, now=1)
        tw.set(7, now=2)
        tw.set(2, now=3)
        assert tw.peak == 7

    def test_adjust(self):
        tw = TimeWeighted()
        tw.adjust(5, now=1)
        tw.adjust(-2, now=2)
        assert tw.current == 3

    def test_time_backwards_rejected(self):
        tw = TimeWeighted()
        tw.set(1, now=5)
        with pytest.raises(ValueError):
            tw.set(2, now=4)


class TestMetricSet:
    def test_lazily_creates_collectors(self):
        metrics = MetricSet()
        metrics.counter("a").add()
        metrics.latency("b").observe(1.0)
        metrics.level("c").set(1, now=0)
        assert metrics.counter("a").count == 1
        assert metrics.latency("b").count == 1
        assert metrics.level("c").current == 1

    def test_same_name_same_collector(self):
        metrics = MetricSet()
        assert metrics.counter("x") is metrics.counter("x")
