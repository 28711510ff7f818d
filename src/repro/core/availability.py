"""Closed-form availability analysis of replicated logs (Section 3.2).

With ``M`` log servers failing independently, each unavailable with
probability ``p``:

* **WriteLog** is available when ``M − N`` or fewer servers are down::

      A_write = Σ_{i=0}^{M−N} C(M, i) p^i (1−p)^{M−i}

* **Client initialization** is available when ``N − 1`` or fewer are
  down (``M − N + 1`` interval lists are required)::

      A_init = Σ_{i=0}^{N−1} C(M, i) p^i (1−p)^{M−i}

  The shipped restart also installs its copies of the last δ records
  on ``N`` servers, so it needs ``N`` up as well: it is available when
  at most ``min(N − 1, M − N)`` are down, the same as ``A_init`` only
  when ``M ≥ 2N − 1`` (:func:`restart_availability`).

* **ReadLog** of a particular record, stored on ``N`` servers, is
  available unless all ``N`` are down::

      A_read = 1 − p^N

Appendix I gives the availability of the replicated identifier
generator with ``N`` state representatives: a majority must be up::

      A_gen = Σ_{i=0}^{⌊(N−1)/2⌋} C(N, i) p^i (1−p)^{N−i}

These functions regenerate Figure 3-4 and the paper's call-out numbers
(0.95, ~0.98, ~0.999).  :func:`figure_3_4_series` produces the exact
series plotted in the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


def _binomial_at_most(k: int, n: int, p: float) -> float:
    """P[at most k of n independent events], each with probability p."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return sum(comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k + 1))


def write_availability(m: int, n: int, p: float) -> float:
    """Probability a replicated log accepts WriteLog operations.

    Available iff at most ``M − N`` servers are simultaneously down.
    """
    _validate(m, n, p)
    return _binomial_at_most(m - n, m, p)


def init_availability(m: int, n: int, p: float) -> float:
    """Probability client initialization can gather its quorum.

    Available iff at most ``N − 1`` servers are down, i.e. at least
    ``M − N + 1`` respond with interval lists.
    """
    _validate(m, n, p)
    return _binomial_at_most(n - 1, m, p)


def restart_availability(m: int, n: int, p: float) -> float:
    """Probability the shipped client restart succeeds.

    :func:`repro.core.recovery.restart` gathers ``M − N + 1`` interval
    lists and then installs copies on ``N`` servers, so it is available
    iff at most ``min(N − 1, M − N)`` servers are down.  Below
    ``M = 2N − 1`` that is less than :func:`init_availability`, which
    counts the gather alone.
    """
    _validate(m, n, p)
    return _binomial_at_most(min(n - 1, m - n), m, p)


def read_availability(n: int, p: float) -> float:
    """Probability a particular record (stored on N servers) is readable."""
    if n < 1:
        raise ValueError("N must be at least 1")
    _check_p(p)
    return 1.0 - p**n


def generator_availability(n_reps: int, p: float) -> float:
    """Appendix I: availability of the replicated identifier generator.

    A NewID needs ``⌈(N+1)/2⌉`` representatives, so the generator is
    available iff ``⌊(N−1)/2⌋`` or fewer are down.
    """
    if n_reps < 1:
        raise ValueError("the generator needs at least one representative")
    _check_p(p)
    return _binomial_at_most((n_reps - 1) // 2, n_reps, p)


def single_server_availability(p: float) -> float:
    """The paper's reference point: one server with mirrored disks.

    Every operation (ReadLog, WriteLog, client init) is available
    exactly when that server is up: ``1 − p``.
    """
    _check_p(p)
    return 1.0 - p


@dataclass(frozen=True, slots=True)
class AvailabilityPoint:
    """One (M, N) configuration's availabilities at failure prob ``p``."""

    m: int
    n: int
    p: float
    write: float
    init: float
    read: float

    @property
    def label(self) -> str:
        return f"M={self.m} N={self.n}"


def availability_point(m: int, n: int, p: float) -> AvailabilityPoint:
    """All three availabilities for one configuration."""
    return AvailabilityPoint(
        m=m, n=n, p=p,
        write=write_availability(m, n, p),
        init=init_availability(m, n, p),
        read=read_availability(n, p),
    )


def figure_3_4_series(
    p: float = 0.05, n_values: tuple[int, ...] = (2, 3), max_m: int = 8,
) -> dict[int, list[AvailabilityPoint]]:
    """The series of Figure 3-4: availability vs M for each N.

    The paper plots WriteLog and client-initialization availability for
    dual-copy (N=2) and triple-copy (N=3) logs as M grows, with
    individual servers available with probability 0.95 (p = 0.05).
    """
    return {
        n: [availability_point(m, n, p) for m in range(n, max_m + 1)]
        for n in n_values
    }


def max_m_for_init_availability(
    n: int, p: float, minimum: float, max_m: int = 100
) -> int:
    """Largest M keeping init availability at or above ``minimum``.

    Reproduces the paper's observation that "with dual copy replicated
    logs, 0.95 or better availability for client initialization would
    be achieved using up to M = 7 log servers" at p = 0.05.
    """
    best = 0
    for m in range(n, max_m + 1):
        if init_availability(m, n, p) >= minimum:
            best = m
        else:
            break
    if best == 0:
        raise ValueError(
            f"no M >= N={n} meets init availability {minimum} at p={p}"
        )
    return best


def _validate(m: int, n: int, p: float) -> None:
    if n < 1 or m < n:
        raise ValueError(f"need M >= N >= 1, got M={m} N={n}")
    _check_p(p)


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
