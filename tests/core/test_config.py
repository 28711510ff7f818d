"""Tests for the (M, N, δ) configuration."""

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import ConfigurationError


class TestReplicationConfig:
    def test_paper_notation_aliases(self):
        config = ReplicationConfig(total_servers=6, copies=2)
        assert config.m == 6
        assert config.n == 2

    def test_init_quorum_is_m_minus_n_plus_1(self):
        assert ReplicationConfig(6, 2).init_quorum == 5
        assert ReplicationConfig(5, 3).init_quorum == 3
        assert ReplicationConfig(3, 3).init_quorum == 1

    def test_write_quorum_is_n(self):
        assert ReplicationConfig(6, 2).write_quorum == 2

    def test_tolerated_failures(self):
        config = ReplicationConfig(5, 2)
        assert config.max_tolerated_failures_for_write() == 3
        assert config.max_tolerated_failures_for_init() == 1

    def test_n_greater_than_m_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(total_servers=2, copies=3)

    def test_zero_copies_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(total_servers=3, copies=0)

    def test_zero_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(3, 2, delta=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicationConfig(3, 2, write_retries=-1)

    def test_m_equals_n_allowed(self):
        config = ReplicationConfig(2, 2)
        assert config.init_quorum == 1

    def test_single_server_config(self):
        config = ReplicationConfig(1, 1)
        assert config.init_quorum == 1
        assert config.write_quorum == 1
