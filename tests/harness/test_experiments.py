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
    run_availability_point,
    run_down_sets,
    run_generator_grid,
    run_nvram_ablation,
    run_prototype_comparison,
    run_splitting_ablation,
    run_target_load,
)


class TestAvailabilityDownSets:
    def test_matches_closed_forms(self):
        pt = run_availability_point(5, 2, 0.05)
        assert pt.write == pytest.approx(
            write_availability(5, 2, 0.05), rel=0, abs=1e-12)
        assert pt.init == pytest.approx(
            init_availability(5, 2, 0.05), rel=0, abs=1e-12)
        assert pt.read == pytest.approx(
            read_availability(2, 0.05), rel=0, abs=1e-12)

    def test_triple_copy(self):
        pt = run_availability_point(5, 3, 0.05)
        assert pt.init == pytest.approx(
            init_availability(5, 3, 0.05), rel=0, abs=1e-12)

    def test_weights_are_the_down_set_probabilities(self):
        # an operation that fails iff node 0 is down is available 1 − p
        assert run_down_sets(3, 0.2, lambda down: (not down[0],)) == \
            pytest.approx([0.8], rel=0, abs=1e-15)
        # and one that always succeeds has total weight 1
        assert run_down_sets(4, 0.3, lambda down: (True, False)) == \
            pytest.approx([1.0, 0.0], rel=0, abs=1e-15)


class TestGeneratorDownSets:
    def test_matches_appendix_formula(self):
        for g in run_generator_grid():
            assert g.available == pytest.approx(
                generator_availability(g.n_reps, g.p), rel=0, abs=1e-12)

    def test_monotonicity_always_holds(self):
        grid = run_generator_grid()
        assert [g.n_reps for g in grid] == [1, 3, 5, 7]
        assert all(g.monotone for g in grid)


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
