"""Capped exponential backoff with deterministic, seeded jitter.

Transient ``NotEnoughServers`` — a force during a churn window, a
client initialization while the init quorum is briefly unreachable —
is survivable: the paper's availability analysis (§3.2) is about how
*often* the quorum exists, and a client that retries through a short
outage sees the availability of the long-run average rather than of
the instant it happened to ask.

:class:`RetryPolicy` computes the delay schedule; all randomness comes
from the caller's ``random.Random`` so retried runs stay bit-for-bit
reproducible, and the jitter stream is only consulted on failure paths
(a failure-free run draws nothing).  The drivers apply it themselves:
simulation processes sleep on the virtual clock, and the runtime client
(``repro.rt.client.async_retry``) on the event loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Delay schedule: ``base * multiplier**attempt`` capped, jittered."""

    base_delay_s: float = 0.02
    cap_delay_s: float = 0.5
    multiplier: float = 2.0
    #: symmetric jitter fraction: a delay ``d`` becomes uniform in
    #: ``[d * (1 - jitter), d * (1 + jitter)]``.
    jitter: float = 0.5
    max_attempts: int = 8

    def __post_init__(self):
        if self.base_delay_s < 0 or self.cap_delay_s < self.base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= cap_delay_s")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.cap_delay_s,
                  self.base_delay_s * self.multiplier ** attempt)
        if self.jitter and raw > 0:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

