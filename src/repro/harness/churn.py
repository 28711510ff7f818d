"""E11 — measured availability under crash/repair *churn* (§3.2).

E2 computes the Figure 3-4 availabilities of the direct algorithm
layer exactly, over every down-set of one instant.  This experiment is
the dynamic half: the full networked stack — clients, servers, LAN,
RPC, NVRAM — runs the ET1 workload while
:class:`~repro.sim.failures.ClusterChurn` drives every log server
(and, optionally, generator-state representatives and the LAN itself)
through independent exponential crash/repair cycles tuned so each
server's long-run unavailability equals the paper's ``p``.

Two kinds of availability come out:

* **state-based** — exact time integrals of the §3.2 predicates over
  the churn schedule: WriteLog is available while at most ``M − N``
  servers are down, client initialization while at most ``N − 1`` are
  down, and ReadLog of a given record while at least one of its ``N``
  holders is up.  Over a long horizon these converge to the binomial
  closed forms of :mod:`repro.core.availability` (each server is an
  alternating renewal process, so its stationary down probability is
  ``mttr/(mtbf+mttr) = p``, and the schedules are independent);
  finite-horizon runs deviate by O(1/sqrt(cycles)).
* **operation-level** — what the workload actually experienced:
  transactions committed and failed, client re-initializations, and
  write-set migrations (§5.4) performed when a write-set server stayed
  down past the migration threshold.

Everything is a deterministic function of ``ChurnConfig.seed``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..analysis.constants import DEFAULT_MIPS
from ..client.epoch_net import NetworkEpochSource
from ..client.log_client import SimLogClient
from ..core.availability import (
    init_availability,
    read_availability,
    write_availability,
)
from ..core.config import ReplicationConfig
from ..core.errors import (
    NotEnoughServers,
    NotInitialized,
    ServerUnavailable,
    StaleEpoch,
)
from ..core.retry import RetryPolicy
from ..net.lan import Lan
from ..server.load import StickyAssignment
from ..server.log_server import SimLogServer
from ..sim.failures import (
    ClusterChurn,
    LinkDegrader,
    UpDownProcess,
    mttr_for_unavailability,
)
from ..sim.kernel import Simulator
from ..sim.stats import MetricSet
from ..workload.et1 import Et1Params, et1_log_pattern


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Parameters of the churn experiment (defaults match §3.2's p)."""

    servers: int = 6
    copies: int = 2
    clients: int = 3
    #: per-server long-run unavailability; mttr is derived from it.
    p: float = 0.05
    mtbf_s: float = 30.0
    duration_s: float = 120.0
    tps_per_client: float = 10.0
    delta: int = 32
    seed: int = 0
    mips: float = DEFAULT_MIPS
    #: long-run unavailability of the LAN itself (0 = no link churn);
    #: a "down" link loses ``link_loss`` of its packets.
    link_p: float = 0.0
    link_mtbf_s: float = 60.0
    link_loss: float = 0.25
    #: long-run unavailability of each generator-state representative
    #: (0 = reps only fail with their hosting server's endpoint).
    generator_p: float = 0.0
    #: write-set migration threshold handed to every client.
    migrate_after_s: float = 1.0
    force_timeout_s: float = 0.15
    et1: Et1Params = Et1Params()


@dataclass(slots=True)
class ChurnResult:
    config: ChurnConfig
    # state-based availability (time integrals) vs the closed forms
    write_available_measured: float
    write_available_closed: float
    init_available_measured: float
    init_available_closed: float
    read_available_measured: float
    read_available_closed: float
    # churn actually injected
    server_crashes: int
    server_down_histogram: dict[int, float]
    mttr_s: float
    link_crashes: int
    generator_crashes: int
    # what the workload experienced
    committed_txns: int
    failed_txns: int
    client_reinits: int
    server_switches: int
    forces: int
    kernel_events: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0

    def rows(self) -> list[tuple[str, str, str]]:
        return [
            ("WriteLog availability",
             f"{self.write_available_measured:.6f}",
             f"{self.write_available_closed:.6f}"),
            ("client-init availability",
             f"{self.init_available_measured:.6f}",
             f"{self.init_available_closed:.6f}"),
            ("ReadLog availability",
             f"{self.read_available_measured:.6f}",
             f"{self.read_available_closed:.6f}"),
        ]


class _AvailabilityIntegrator:
    """Exact time integrals of the §3.2 availability predicates.

    Fed by the server churn's transition callbacks; between callbacks
    the down-set is constant, so integrating at each transition (and
    once at the horizon) is exact, not sampled.
    """

    def __init__(self, sim: Simulator, m: int, n: int,
                 read_holders: tuple[str, ...]):
        self.sim = sim
        self.m = m
        self.n = n
        #: the reference replica set for ReadLog: a record stored on
        #: these N servers is readable while any one of them is up.
        self.read_holders = frozenset(read_holders)
        self.down: set[str] = set()
        self._last = sim.now
        self._start = sim.now
        self.write_time = 0.0
        self.init_time = 0.0
        self.read_time = 0.0

    def _flush(self) -> None:
        now = self.sim.now
        dt = now - self._last
        if dt > 0:
            d = len(self.down)
            if d <= self.m - self.n:
                self.write_time += dt
            if d <= self.n - 1:
                self.init_time += dt
            if not self.read_holders <= self.down:
                self.read_time += dt
        self._last = now

    def on_change(self, target_id: str, up: bool) -> None:
        self._flush()
        if up:
            self.down.discard(target_id)
        else:
            self.down.add(target_id)

    def fractions(self) -> tuple[float, float, float]:
        self._flush()
        elapsed = self.sim.now - self._start
        if elapsed <= 0:
            return 1.0, 1.0, 1.0
        return (self.write_time / elapsed, self.init_time / elapsed,
                self.read_time / elapsed)


@dataclass(slots=True)
class _ClientStats:
    committed: int = 0
    failed: int = 0
    reinits: int = 0


def _client_loop(sim: Simulator, client: SimLogClient, config: ChurnConfig,
                 rng: random.Random, stats: _ClientStats, t_end: float):
    """Closed-loop ET1 that survives churn instead of giving up.

    Every quorum loss crashes the client node (volatile state gone, as
    §3.1.2 requires) and re-initializes with retry; each transaction
    is one attempt — its commit either forces through or counts as
    failed.
    """
    seq = 0
    while sim.now < t_end:
        if not client.initialized:
            try:
                yield from client.restart_with_retry(deadline_s=5.0)
                stats.reinits += 1
            except (NotEnoughServers, ServerUnavailable, StaleEpoch):
                yield sim.timeout(0.5)
                continue
        yield sim.timeout(rng.expovariate(config.tps_per_client))
        if sim.now >= t_end:
            break
        try:
            for data, kind, forced in et1_log_pattern(config.et1, seq):
                yield from client.log(data, kind)
                if forced:
                    yield from client.force()
            stats.committed += 1
        except (NotEnoughServers, ServerUnavailable, NotInitialized):
            stats.failed += 1
            client.crash()
        seq += 1


def run_availability_churn(config: ChurnConfig = ChurnConfig()) -> ChurnResult:
    """Run ET1 under (mtbf, mttr) churn and measure §3.2 availability."""
    wall_start = time.perf_counter()
    sim = Simulator()
    metrics = MetricSet()
    mttr = mttr_for_unavailability(config.mtbf_s, config.p)

    lan = Lan(sim, rng=random.Random(config.seed + 1), name="lan")
    server_ids = [f"s{i}" for i in range(config.servers)]
    servers = {
        sid: SimLogServer(sim, lan, sid, mips=config.mips, metrics=metrics)
        for sid in server_ids
    }
    #: generator-state representatives live on the first three servers
    #: (Appendix I footnote); clients reach them over their own log
    #: connections.
    rep_ids = server_ids[: min(3, len(server_ids))]

    retry_policy = RetryPolicy(base_delay_s=0.05, cap_delay_s=0.5,
                               jitter=0.5, max_attempts=6)
    clients: list[SimLogClient] = []
    stats: list[_ClientStats] = []
    for i in range(config.clients):
        preferred = [
            server_ids[i % config.servers],
            server_ids[(i + 1) % config.servers],
        ]
        client = SimLogClient(
            sim, lan, f"c{i}", server_ids,
            ReplicationConfig(config.servers, config.copies,
                              delta=config.delta),
            NetworkEpochSource(rep_ids),
            mips=config.mips, metrics=metrics,
            assignment=StickyAssignment(preferred),
            force_timeout_s=config.force_timeout_s,
            rng=random.Random(config.seed + 100 + i),
            retry_policy=retry_policy,
            migrate_after_s=config.migrate_after_s,
        )
        clients.append(client)
        stats.append(_ClientStats())

    # the reference ReadLog replica set: the first client's initial
    # write set would do, but the first N server ids are deterministic
    # before the run even starts.
    integrator = _AvailabilityIntegrator(
        sim, config.servers, config.copies,
        tuple(server_ids[: config.copies]),
    )
    server_churn = ClusterChurn(
        sim, servers, mtbf=config.mtbf_s, mttr=mttr,
        seed=config.seed, name="server-churn",
        on_change=integrator.on_change,
    )
    generator_churn = None
    if config.generator_p > 0:
        generator_churn = ClusterChurn(
            sim,
            {f"{sid}.genrep": servers[sid].generator_rep for sid in rep_ids},
            mtbf=config.mtbf_s,
            mttr=mttr_for_unavailability(config.mtbf_s, config.generator_p),
            seed=config.seed + 1, name="generator-churn",
        )
    link_injector = None
    link_target = None
    if config.link_p > 0:
        link_target = LinkDegrader(lan, degraded_loss=config.link_loss)
        link_injector = UpDownProcess.for_unavailability(
            sim, link_target, config.link_mtbf_s, config.link_p,
            rng=random.Random(config.seed + 2),
        )

    for i, client in enumerate(clients):
        sim.spawn(
            _client_loop(sim, client, config,
                         random.Random(config.seed + 1000 + i),
                         stats[i], config.duration_s),
            name=f"{client.client_id}.churn-loop",
        )

    sim.run(until=config.duration_s)
    write_meas, init_meas, read_meas = integrator.fractions()
    histogram = server_churn.down_histogram()
    server_crashes = server_churn.crashes()
    generator_crashes = generator_churn.crashes() if generator_churn else 0
    link_crashes = link_injector.crashes if link_injector else 0

    # stop the injectors and let the interrupted schedules settle
    server_churn.stop()
    if generator_churn is not None:
        generator_churn.stop()
    if link_injector is not None:
        link_injector.stop()
    sim.run(until=config.duration_s + 10.0)

    return ChurnResult(
        config=config,
        write_available_measured=write_meas,
        write_available_closed=write_availability(
            config.servers, config.copies, config.p),
        init_available_measured=init_meas,
        init_available_closed=init_availability(
            config.servers, config.copies, config.p),
        read_available_measured=read_meas,
        read_available_closed=read_availability(config.copies, config.p),
        server_crashes=server_crashes,
        server_down_histogram=histogram,
        mttr_s=mttr,
        link_crashes=link_crashes,
        generator_crashes=generator_crashes,
        committed_txns=sum(s.committed for s in stats),
        failed_txns=sum(s.failed for s in stats),
        client_reinits=sum(s.reinits for s in stats),
        server_switches=sum(c.server_switches for c in clients),
        forces=sum(c.forces for c in clients),
        kernel_events=sim.events_processed,
        wall_seconds=time.perf_counter() - wall_start,
        sim_seconds=sim.now,
    )
