"""Tests for the degraded-mode, load-sweep and multicast runners."""

import pytest

from repro.harness.experiments import (
    run_degraded_mode,
    run_load_sweep,
    run_multicast_ablation,
    run_space_management,
)


class TestDegradedMode:
    def test_writes_survive_half_the_fleet_down(self):
        rows = run_degraded_mode(clients=6, servers=4,
                                 down_counts=(0, 2), duration_s=1.0)
        baseline, degraded = rows
        assert degraded.failed_drivers == 0
        assert degraded.completed_txns > 0.8 * baseline.completed_txns
        assert (degraded.survivor_cpu_utilization
                > baseline.survivor_cpu_utilization)

    def test_rejects_configs_below_n(self):
        with pytest.raises(ValueError):
            run_degraded_mode(servers=3, down_counts=(2,))


class TestLoadSweep:
    def test_saturation_shape(self):
        rows = run_load_sweep(multipliers=(1.0, 6.0), clients=8,
                              duration_s=1.5)
        light, heavy = rows
        assert heavy.disk_utilization > light.disk_utilization
        assert heavy.achieved_tps > light.achieved_tps
        # heavy load cannot achieve its full offered rate
        assert heavy.achieved_tps < 8 * heavy.tps_per_client


class TestMulticast:
    def test_traffic_halves_for_two_copies(self):
        result = run_multicast_ablation(clients=6, forces_per_client=20)
        assert result.traffic_ratio == pytest.approx(0.5, abs=0.03)

    def test_three_copies_thirds(self):
        result = run_multicast_ablation(clients=6, copies=3,
                                        forces_per_client=20)
        assert result.traffic_ratio == pytest.approx(1 / 3, abs=0.03)


class TestSpaceManagementRunner:
    def test_strategies_ordered_by_online_bytes(self):
        rows = run_space_management(transactions=40, dump_every=20)
        by_name = {r.strategy: r for r in rows}
        assert (by_name["spool"].online_bytes
                <= by_name["accumulate"].online_bytes)
        assert (by_name["dump+discard"].online_bytes
                <= by_name["accumulate"].online_bytes)
        assert by_name["spool"].offline_bytes > 0


class TestRestartLatency:
    def test_restart_latency_grows_mildly_with_m(self):
        from repro.harness.experiments import run_restart_latency
        rows = run_restart_latency(m_values=(2, 6), records=60, restarts=2)
        small, large = rows
        assert large.mean_restart_ms > small.mean_restart_ms
        # per-server cost is a couple of milliseconds, not a multiple
        assert large.mean_restart_ms < 2 * small.mean_restart_ms
        assert small.intervals_merged >= 2
