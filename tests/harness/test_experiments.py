"""Integration tests for the experiment runners (fast configurations)."""

import pytest

from repro.core.availability import (
    generator_availability,
    init_availability,
    read_availability,
    write_availability,
)
from repro.harness.experiments import (
    TargetLoadConfig,
    run_assignment_ablation,
    run_availability_monte_carlo,
    run_generator_monte_carlo,
    run_nvram_ablation,
    run_prototype_comparison,
    run_splitting_ablation,
    run_target_load,
)


class TestAvailabilityMonteCarlo:
    def test_matches_closed_forms(self):
        mc = run_availability_monte_carlo(5, 2, 0.05, trials=1500, seed=1)
        assert mc.write_available == pytest.approx(
            write_availability(5, 2, 0.05), abs=0.02)
        assert mc.init_available == pytest.approx(
            init_availability(5, 2, 0.05), abs=0.02)
        assert mc.read_available == pytest.approx(
            read_availability(2, 0.05), abs=0.02)

    def test_triple_copy(self):
        mc = run_availability_monte_carlo(5, 3, 0.05, trials=1000, seed=2)
        assert mc.init_available == pytest.approx(
            init_availability(5, 3, 0.05), abs=0.03)

    def test_deterministic_given_seed(self):
        a = run_availability_monte_carlo(4, 2, 0.1, trials=300, seed=7)
        b = run_availability_monte_carlo(4, 2, 0.1, trials=300, seed=7)
        assert a == b


class TestGeneratorMonteCarlo:
    def test_matches_appendix_formula(self):
        mc = run_generator_monte_carlo(3, 0.05, trials=1500, seed=0)
        assert mc.available == pytest.approx(
            generator_availability(3, 0.05), abs=0.02)

    def test_monotonicity_always_holds(self):
        for n in (1, 3, 5):
            mc = run_generator_monte_carlo(n, 0.2, trials=400, seed=n)
            assert mc.monotone


class TestTargetLoad:
    def test_small_configuration_matches_scaled_model(self):
        config = TargetLoadConfig(clients=10, servers=3, duration_s=2.0,
                                  tps_per_client=10)
        result = run_target_load(config)
        assert result.failed_drivers == 0
        assert result.completed_txns > 0
        # achieved TPS near the closed-loop bound
        assert result.achieved_tps > 60
        # grouped interface: roughly 1 force message per txn per copy
        expected_rpcs = result.achieved_tps * 2 / 3
        assert result.rpcs_per_server_s == pytest.approx(
            expected_rpcs, rel=0.25)
        # forces are NVRAM-fast (no rotational wait)
        assert result.force_mean_ms < 15
        assert result.messages_shed == 0

    def test_result_rows_render(self):
        config = TargetLoadConfig(clients=4, servers=2, duration_s=1.0)
        result = run_target_load(config)
        rows = result.rows()
        assert len(rows) == 7


class TestPrototypeComparison:
    def test_less_than_twice_local(self):
        """The Section 5.6 claim, with Accent-like IPC costs."""
        pc = run_prototype_comparison(transactions=100)
        assert 1.0 < pc.ratio < 2.0

    def test_efficient_protocols_beat_local(self):
        """With the paper's 1000-instr packets, remote wins outright —
        the whole point of Section 4's specialized protocols."""
        pc = run_prototype_comparison(transactions=50,
                                      accent_instructions_per_packet=1000,
                                      mips=4.0)
        assert pc.ratio < 1.0


class TestAblations:
    def test_nvram_ablation_shows_rotational_wall(self):
        result = run_nvram_ablation(transactions=100)
        assert result.latency_ratio > 3
        assert result.without_nvram_force_ms > 20

    def test_assignment_ablation_interval_fragmentation(self):
        rows = run_assignment_ablation(clients=6, servers=3,
                                       duration_s=1.5)
        by_name = {row.strategy: row for row in rows}
        assert by_name["sticky"].max_interval_list_len == 1
        assert by_name["rotate-often"].max_interval_list_len > 1
        assert by_name["rotate-often"].server_switches > 0

    def test_splitting_ablation_saves_bytes_and_reads(self):
        rows = run_splitting_ablation(transactions=30)
        by_mode = {row.mode: row for row in rows}
        assert by_mode["split"].bytes_logged < by_mode["combined"].bytes_logged
        assert by_mode["split"].remote_abort_reads == 0
        assert by_mode["combined"].remote_abort_reads > 0
