"""Tests for the replicated increasing unique-identifier generator."""

import asyncio
import random

import pytest

from repro.core.errors import NotEnoughServers
from repro.core.epoch import (
    GeneratorStateRepresentative,
    LocalIdGenerator,
    ReplicatedIdGenerator,
    make_generator,
    read_quorum_size,
    write_quorum_size,
)
from repro.core.retry import RetryPolicy
from repro.rt.client import async_retry


class TestQuorumSizes:
    @pytest.mark.parametrize("n,read_q,write_q", [
        (1, 1, 1),
        (2, 2, 1),
        (3, 2, 2),
        (4, 3, 2),
        (5, 3, 3),
        (7, 4, 4),
    ])
    def test_appendix_formulas(self, n, read_q, write_q):
        assert read_quorum_size(n) == read_q
        assert write_quorum_size(n) == write_q

    @pytest.mark.parametrize("n", range(1, 10))
    def test_quorums_intersect(self, n):
        # correctness requires read + write > n
        assert read_quorum_size(n) + write_quorum_size(n) > n


class TestNewId:
    def test_ids_strictly_increase(self):
        generator = make_generator(3)
        ids = [generator.new_id() for _ in range(20)]
        assert all(b > a for a, b in zip(ids, ids[1:]))

    def test_ids_survive_minority_failures(self):
        generator = make_generator(5)
        first = generator.new_id()
        generator.representatives[0].crash()
        generator.representatives[1].crash()
        second = generator.new_id()
        assert second > first

    def test_majority_failure_blocks(self):
        generator = make_generator(3)
        generator.representatives[0].crash()
        generator.representatives[1].crash()
        with pytest.raises(NotEnoughServers):
            generator.new_id()

    def test_increasing_across_failover_sets(self):
        """Ids stay monotone as different minorities fail."""
        generator = make_generator(3)
        reps = generator.representatives
        last = 0
        for downed in (0, 1, 2, 0, 1, 2):
            reps[downed].crash()
            value = generator.new_id()
            assert value > last
            last = value
            reps[downed].restart()

    def test_crash_between_read_and_write_skips_values(self):
        """A partially performed NewID may skip but never repeat."""
        generator = make_generator(3)
        a = generator.new_id()
        # simulate: a NewID read max=a, wrote a+1 to one rep, crashed
        generator.representatives[0].write(a + 1)
        b = generator.new_id()
        assert b > a  # monotone even though a+1 was partially issued

    def test_representative_ignores_stale_writes(self):
        rep = GeneratorStateRepresentative("r0", value=10)
        rep.write(5)  # a delayed duplicate
        assert rep.read() == 10

    def test_history_is_appended(self):
        rep = GeneratorStateRepresentative("r0")
        rep.write(1)
        rep.write(3)
        assert rep.history == [1, 3]

    def test_empty_generator_rejected(self):
        with pytest.raises(NotEnoughServers):
            ReplicatedIdGenerator([])

    def test_single_representative_works(self):
        generator = make_generator(1)
        assert generator.new_id() == 1
        assert generator.new_id() == 2


class TestLocalIdGenerator:
    def test_sequence(self):
        generator = LocalIdGenerator()
        assert [generator.new_id() for _ in range(3)] == [1, 2, 3]

    def test_start_offset(self):
        generator = LocalIdGenerator(start=10)
        assert generator.new_id() == 11


class TestNewIdWithRetry:
    """NewID retried through transient quorum loss, the way the runtime
    client retries its restart (:func:`repro.rt.client.async_retry`)."""

    @staticmethod
    def retried_new_id(generator, policy, on_retry=None):
        async def attempt():
            return generator.new_id()

        return asyncio.run(async_retry(attempt, policy, random.Random(0),
                                       on_retry=on_retry))

    def test_rides_out_a_repair_window(self):
        generator = make_generator(3)
        generator.representatives[0].crash()
        generator.representatives[1].crash()

        async def repair(attempt):
            if attempt == 0:
                generator.representatives[0].restart()

        first = self.retried_new_id(
            generator, RetryPolicy(base_delay_s=0.0, cap_delay_s=0.0,
                                   max_attempts=3, jitter=0.0),
            on_retry=repair)
        assert generator.new_id() > first

    def test_exhaustion_raises(self):
        generator = make_generator(3)
        generator.representatives[0].crash()
        generator.representatives[1].crash()
        with pytest.raises(NotEnoughServers):
            self.retried_new_id(
                generator, RetryPolicy(base_delay_s=0.0, cap_delay_s=0.0,
                                       max_attempts=2, jitter=0.0))
