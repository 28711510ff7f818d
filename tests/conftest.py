"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import ReplicationConfig
from repro.core.epoch import make_generator
from repro.core.replicated_log import ReplicatedLog
from repro.core.store import LogServerStore


def drain(gen):
    """Run a generator-based operation outside a simulator.

    Direct-backend operations never yield; this drives them to
    completion and returns their value.
    """
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def drive():
    """The drain helper as a fixture."""
    return drain


def build_direct_log(
    m: int = 3, n: int = 2, delta: int = 1, client_id: str = "c1"
) -> tuple[ReplicatedLog, dict[str, LogServerStore]]:
    """An initialized direct-mode replicated log plus its stores."""
    stores = {f"s{i}": LogServerStore(f"s{i}") for i in range(m)}
    log = ReplicatedLog(
        client_id=client_id,
        stores=stores,
        config=ReplicationConfig(total_servers=m, copies=n, delta=delta),
        epoch_source=make_generator(3),
    )
    log.initialize()
    return log, stores


@pytest.fixture
def direct_log():
    """(log, stores) with M=3, N=2, δ=1, already initialized."""
    return build_direct_log()
