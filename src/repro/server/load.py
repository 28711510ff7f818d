"""Load shedding and server-selection strategies (Sections 4.2, 5.4).

Servers "are free to ignore ForceLog and WriteLog messages if they
become too heavily loaded.  Clients will simply assume that the server
has failed and will take their logging elsewhere."  The shedding
trigger here is NVRAM back-pressure: when the non-volatile buffer
cannot take a message's records, the message is dropped.

Section 5.4 leaves load *assignment* open ("presumably, simple
decentralized strategies for assigning loads fairly can be used") and
suggests it is "very amenable to … simple experimentation" — the
strategies below are the ones the ablation benchmark compares.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..storage.nvram import NvramBuffer


class NvramBackpressure:
    """Shed when the NVRAM buffer cannot absorb the message."""

    def __init__(self, nvram: NvramBuffer):
        self.nvram = nvram

    def should_shed(self, incoming_bytes: int) -> bool:
        return self.nvram.free < incoming_bytes


class StickyAssignment:
    """Stay with the current servers; deterministic fallback order.

    The paper's default behaviour: "clients should attempt to perform
    consecutive writes to the same servers" to keep interval lists
    short.
    """

    def __init__(self, preferred: Sequence[str] = ()):
        self.preferred = list(preferred)

    def choose(
        self, servers: Sequence[str], n: int, loads: dict[str, float]
    ) -> list[str]:
        ordered = [s for s in self.preferred if s in servers]
        ordered += [s for s in sorted(servers) if s not in ordered]
        return ordered[:n]


class RandomAssignment:
    """Pick N servers uniformly at random (no stickiness)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def choose(
        self, servers: Sequence[str], n: int, loads: dict[str, float]
    ) -> list[str]:
        pool = list(servers)
        self.rng.shuffle(pool)
        return pool[:n]


class LeastLoadedAssignment:
    """Pick the N servers with the lowest observed load.

    ``loads`` maps server id to any monotone load signal the client has
    observed (e.g. recent force latency); unknown servers count as
    unloaded, which gives new servers a chance.
    """

    def choose(
        self, servers: Sequence[str], n: int, loads: dict[str, float]
    ) -> list[str]:
        return sorted(servers, key=lambda s: (loads.get(s, 0.0), s))[:n]
