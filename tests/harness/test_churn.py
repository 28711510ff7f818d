"""Tests for the §3.2 availability-under-churn experiment."""

import pytest

from repro.harness.churn import ChurnConfig, run_availability_churn


def _stats(result):
    """The deterministic fields a repeated run must reproduce exactly."""
    return {
        "write": result.write_available_measured,
        "init": result.init_available_measured,
        "read": result.read_available_measured,
        "crashes": result.server_crashes,
        "histogram": result.server_down_histogram,
        "committed": result.committed_txns,
        "failed": result.failed_txns,
        "reinits": result.client_reinits,
        "switches": result.server_switches,
        "kernel_events": result.kernel_events,
    }


SHORT = ChurnConfig(duration_s=30.0, clients=2, tps_per_client=5.0, seed=0)


class TestChurnExperiment:
    def test_short_run_is_sane(self):
        result = run_availability_churn(SHORT)
        assert result.server_crashes > 0
        assert result.committed_txns > 0
        for measured in (result.write_available_measured,
                         result.init_available_measured,
                         result.read_available_measured):
            assert 0.0 <= measured <= 1.0
        # the closed forms come straight from core.availability
        assert result.write_available_closed == pytest.approx(0.999998,
                                                              abs=1e-5)
        # the acceptance bound holds even at a 30 s horizon
        assert abs(result.write_available_measured
                   - result.write_available_closed) <= 0.01

    def test_histogram_integrates_the_horizon(self):
        result = run_availability_churn(SHORT)
        total = sum(result.server_down_histogram.values())
        assert total == pytest.approx(SHORT.duration_s, rel=1e-6)

    def test_deterministic_from_seed(self):
        a = run_availability_churn(SHORT)
        b = run_availability_churn(SHORT)
        assert _stats(a) == _stats(b)

    def test_seed_changes_the_run(self):
        a = run_availability_churn(SHORT)
        c = run_availability_churn(
            ChurnConfig(duration_s=30.0, clients=2, tps_per_client=5.0,
                        seed=1))
        assert _stats(a) != _stats(c)

    def test_link_and_generator_churn_compose(self):
        result = run_availability_churn(ChurnConfig(
            duration_s=30.0, clients=2, tps_per_client=5.0, seed=0,
            link_p=0.05, link_mtbf_s=5.0, link_loss=0.3,
            generator_p=0.1,
        ))
        assert result.link_crashes > 0
        assert result.generator_crashes > 0
        assert result.committed_txns > 0
