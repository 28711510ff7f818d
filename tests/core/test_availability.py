"""Tests for the Section 3.2 / Appendix I closed forms."""

import math

import pytest

from repro.core.availability import (
    availability_point,
    figure_3_4_series,
    generator_availability,
    init_availability,
    max_m_for_init_availability,
    read_availability,
    restart_availability,
    single_server_availability,
    write_availability,
)


class TestWriteAvailability:
    def test_m_equals_n_is_all_up(self):
        # every server must be up: (1-p)^M
        assert write_availability(2, 2, 0.05) == pytest.approx(0.95**2)
        assert write_availability(3, 3, 0.1) == pytest.approx(0.9**3)

    def test_monotone_in_m(self):
        # "As log servers are added, WriteLog availability approaches
        # unity very quickly."
        values = [write_availability(m, 2, 0.05) for m in range(2, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.9999999

    def test_paper_example_m5_n2(self):
        # "at least four of the five servers must be down"
        p = 0.05
        by_formula = write_availability(5, 2, p)
        direct = 1 - (math.comb(5, 4) * p**4 * (1 - p) + p**5)
        assert by_formula == pytest.approx(direct)

    def test_p_zero_and_one(self):
        assert write_availability(5, 2, 0.0) == 1.0
        assert write_availability(5, 2, 1.0) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            write_availability(2, 3, 0.05)
        with pytest.raises(ValueError):
            write_availability(3, 2, 1.5)


class TestInitAvailability:
    def test_decreases_as_servers_added(self):
        # "Client initialization availability decreases as log servers
        # are added"
        values = [init_availability(m, 2, 0.05) for m in range(2, 9)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_paper_example_m5_n2_about_098(self):
        # "four of the five log servers must be available ... about 0.98"
        assert init_availability(5, 2, 0.05) == pytest.approx(0.977, abs=0.005)

    def test_paper_example_m5_n3_about_0999(self):
        # "with five log servers and triple copy replicated logs,
        # availability for both ... is about 0.999"
        assert init_availability(5, 3, 0.05) == pytest.approx(0.9988, abs=0.002)
        assert write_availability(5, 3, 0.05) == pytest.approx(0.9988, abs=0.002)

    def test_m_equals_n_single_list_suffices(self):
        # with M = N, one interval list is enough: 1 - p^M
        assert init_availability(2, 2, 0.05) == pytest.approx(1 - 0.05**2)


class TestReadAvailability:
    def test_formula(self):
        assert read_availability(2, 0.05) == pytest.approx(1 - 0.05**2)
        assert read_availability(3, 0.1) == pytest.approx(1 - 0.001)

    def test_single_copy(self):
        assert read_availability(1, 0.05) == pytest.approx(0.95)


class TestGeneratorAvailability:
    def test_majority_formula(self):
        # N=3: available iff ≤1 rep down
        p = 0.05
        expected = (1 - p) ** 3 + 3 * p * (1 - p) ** 2
        assert generator_availability(3, p) == pytest.approx(expected)

    def test_footnote_claim(self):
        """Generator with 3 reps beats client-init needs for M=5, N=2."""
        assert generator_availability(3, 0.05) > init_availability(5, 2, 0.05)

    def test_single_rep(self):
        assert generator_availability(1, 0.05) == pytest.approx(0.95)

    def test_even_counts(self):
        # N=4 needs 3 up (⌈5/2⌉): available iff ≤1 down
        p = 0.1
        expected = (1 - p) ** 4 + 4 * p * (1 - p) ** 3
        assert generator_availability(4, p) == pytest.approx(expected)


class TestPaperComparisons:
    def test_single_server_reference(self):
        # "ReadLog, WriteLog and client initialization would be
        # available with probability 0.95"
        assert single_server_availability(0.05) == pytest.approx(0.95)

    def test_dual_copy_up_to_m7_beats_single_server(self):
        # "0.95 or better availability for client initialization would
        # be achieved using up to M = 7 log servers"
        assert max_m_for_init_availability(2, 0.05, 0.95) == 7
        assert init_availability(7, 2, 0.05) >= 0.95
        assert init_availability(8, 2, 0.05) < 0.95

    def test_figure_3_4_series_shape(self):
        series = figure_3_4_series(p=0.05, n_values=(2, 3), max_m=8)
        assert set(series) == {2, 3}
        for n, points in series.items():
            assert points[0].m == n
            assert points[-1].m == 8
            # write availability rises, init availability falls
            writes = [pt.write for pt in points]
            inits = [pt.init for pt in points]
            assert writes == sorted(writes)
            assert inits == sorted(inits, reverse=True)

    def test_triple_copy_trades_write_for_init(self):
        # at fixed M, larger N: lower write availability, higher init
        p = 0.05
        assert write_availability(5, 3, p) < write_availability(5, 2, p)
        assert init_availability(5, 3, p) > init_availability(5, 2, p)

    def test_availability_point_bundle(self):
        pt = availability_point(5, 2, 0.05)
        assert pt.write == write_availability(5, 2, 0.05)
        assert pt.init == init_availability(5, 2, 0.05)
        assert pt.read == read_availability(2, 0.05)
        assert pt.label == "M=5 N=2"


class TestRestartAvailabilityByEnumeration:
    """The shipped restart, over every one of the 2^M down-sets.

    ``recover`` must install copies on ``N`` servers after the gather
    of ``M − N + 1`` interval lists, so a restart is available iff at
    most ``min(N − 1, M − N)`` servers are down.  ``init_availability``
    counts only the gather (``N − 1``): the two agree when
    ``M − N ≥ N − 1`` and the code is less available otherwise.
    """

    P = 0.05

    @pytest.mark.parametrize("m,n,shipped", [
        (2, 2, 0.9025), (3, 3, 0.857375), (4, 3, 0.985981),
        (3, 2, None), (5, 3, None)])
    def test_restart_is_available_iff_few_enough_are_down(self, m, n,
                                                          shipped):
        from repro.harness.experiments import run_availability_point

        p = self.P
        available = run_availability_point(m, n, p).init
        assert available == pytest.approx(
            restart_availability(m, n, p), rel=0, abs=1e-12)
        if shipped is None:
            assert available == pytest.approx(
                init_availability(m, n, p), rel=0, abs=1e-12)
        else:
            assert available == pytest.approx(shipped, rel=0, abs=1e-6)
            assert available < init_availability(m, n, p)

    def test_code_form_is_the_paper_form_from_m_2n_minus_1(self):
        for n in (1, 2, 3, 4):
            for m in range(n, 12):
                code = restart_availability(m, n, self.P)
                paper = init_availability(m, n, self.P)
                if m >= 2 * n - 1:
                    assert code == paper
                else:
                    assert code < paper
