"""Tests for the capped-exponential-backoff retry policy, and for the
loop that applies it (:func:`repro.rt.client.async_retry`)."""

import asyncio
import random

import pytest

from repro.core.errors import NotEnoughServers, ServerUnavailable
from repro.core.retry import RetryPolicy
from repro.rt import client


def retried(fn, policy, rng, retry_on=(NotEnoughServers,), on_retry=None):
    """Drive :func:`~repro.rt.client.async_retry` over a plain ``fn``."""

    async def attempt():
        return fn()

    async def notify(n):
        on_retry(n)

    return asyncio.run(client.async_retry(
        attempt, policy, rng, retry_on=retry_on,
        on_retry=notify if on_retry is not None else None))


@pytest.fixture
def slept(monkeypatch):
    """The delays the retry loop slept, instead of sleeping them."""
    delays = []

    async def sleep(delay):
        delays.append(delay)

    monkeypatch.setattr(client.asyncio, "sleep", sleep)
    return delays


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(base_delay_s=0.1, cap_delay_s=0.4,
                             multiplier=2.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(a, rng) for a in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.4, 0.4])

    def test_jitter_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay_s=0.1, cap_delay_s=1.0, jitter=0.5)
        a = [policy.delay(i, random.Random(42)) for i in range(8)]
        b = [policy.delay(i, random.Random(42)) for i in range(8)]
        assert a == b  # deterministic given the seed
        for attempt, delay in enumerate(a):
            nominal = min(1.0, 0.1 * 2.0 ** attempt)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.2, cap_delay_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetryCall:
    def test_succeeds_after_transient_failures(self, slept):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise NotEnoughServers("not yet")
            return "ok"

        result = retried(flaky, RetryPolicy(jitter=0.0), random.Random(0))
        assert result == "ok"
        assert calls["n"] == 3
        assert slept == [0.02, 0.04]  # one sleep per failed attempt

    def test_exhaustion_raises_last_error(self, slept):
        def always_down():
            raise NotEnoughServers("still down")

        with pytest.raises(NotEnoughServers):
            retried(always_down, RetryPolicy(max_attempts=3, jitter=0.0),
                    random.Random(0))
        assert len(slept) == 2

    def test_non_retryable_error_propagates_immediately(self, slept):
        calls = {"n": 0}

        def wrong_kind():
            calls["n"] += 1
            raise ServerUnavailable("s0", "down")

        with pytest.raises(ServerUnavailable):
            retried(wrong_kind, RetryPolicy(), random.Random(0),
                    retry_on=(NotEnoughServers,))
        assert calls["n"] == 1
        assert slept == []

    def test_on_retry_sees_attempt_numbers(self, slept):
        calls = {"n": 0}
        seen = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                raise NotEnoughServers("not yet")
            return calls["n"]

        retried(flaky, RetryPolicy(jitter=0.0), random.Random(0),
                on_retry=seen.append)
        assert seen == [0, 1, 2]
