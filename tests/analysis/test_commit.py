"""Tests for the Section 5.5 commit-coordination cost model."""

import pytest

from repro.analysis.commit import (
    common_commit_cost,
    crossover_table,
    two_phase_commit_cost,
)


class TestTwoPhaseCommit:
    def test_local_transaction_is_one_force(self):
        cost = two_phase_commit_cost(1)
        assert cost.log_forces == 1
        assert cost.protocol_messages == 0

    def test_message_count_grows_4_per_subordinate(self):
        assert two_phase_commit_cost(2).protocol_messages == 4
        assert two_phase_commit_cost(5).protocol_messages == 16

    def test_forces_2k_minus_1(self):
        for k in range(1, 6):
            assert two_phase_commit_cost(k).log_forces == 2 * k - 1

    def test_logging_packets_scale_with_copies(self):
        n2 = two_phase_commit_cost(3, copies=2)
        n3 = two_phase_commit_cost(3, copies=3)
        assert n3.logging_packets == n2.logging_packets * 3 // 2

    def test_invalid_participants(self):
        with pytest.raises(ValueError):
            two_phase_commit_cost(0)


class TestCommonCommit:
    def test_forces_k_plus_1(self):
        for k in range(1, 6):
            assert common_commit_cost(k).log_forces == k + 1

    def test_latency_independent_of_participants(self):
        # prepares are parallel; the decision is one local force
        assert (common_commit_cost(2).latency_s
                == common_commit_cost(6).latency_s)

    def test_invalid_participants(self):
        with pytest.raises(ValueError):
            common_commit_cost(0)


class TestCrossover:
    def test_paper_tradeoff_shape(self):
        """Local: replicated wins.  Multi-node: common server wins.

        At k = 2 the force counts tie (3 each); the common server's
        advantage appears from k = 3 and grows with k.
        """
        rows = crossover_table(6)
        k1 = rows[0]
        assert k1[1].log_forces < k1[2].log_forces
        for k, tpc, cc in rows[1:]:
            assert cc.log_forces <= tpc.log_forces, k
            assert cc.latency_s < tpc.latency_s, k
        for k, tpc, cc in rows[2:]:
            assert cc.log_forces < tpc.log_forces, k

    def test_message_crossover(self):
        """Common commit's messages grow slower than 2PC's."""
        rows = crossover_table(8)
        tpc_slope = (rows[-1][1].protocol_messages
                     - rows[-2][1].protocol_messages)
        cc_slope = (rows[-1][2].protocol_messages
                    - rows[-2][2].protocol_messages)
        assert cc_slope < tpc_slope

    def test_table_length(self):
        assert len(crossover_table(4)) == 4
