"""Experiment runners: one function per paper figure/claim.

Each runner assembles the full simulated system (or the direct
algorithm layer, where timing is irrelevant), executes the workload,
and returns a small result dataclass that a row of
:data:`repro.paper.EXPERIMENTS` renders and checks and the
integration tests assert on.  All runs are deterministic given their
seed.

Index (see DESIGN.md §4):

* :func:`run_availability_grid` — E2 and A5, the Figure 3-4
  availabilities of the real algorithm, exact over every down-set
  (:func:`run_availability_point`, one (M, N) point, over
  :func:`run_down_sets`);
* :func:`run_generator_grid` — E8, the same for Appendix I's NewID;
* :func:`run_target_load` — E4, the 50-client / 6-server / 500-TPS
  configuration of Section 4.1, measured rather than derived;
* :func:`run_prototype_pair` — E5, the Section 5.6 measurement
  (remote logging to two servers vs local single-disk logging);
* :func:`run_paper_figure_states` — E6, the Figure 3-1/3-2/3-3 worked
  example;
* :func:`run_append_forest` — E7, the Figure 4-3 example and the
  Section 4.3 complexity claims;
* :func:`run_nvram_ablation` — A2;
* :func:`run_assignment_ablation` — A4;
* :func:`run_splitting_ablation` — A3.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from ..analysis.constants import DEFAULT_MIPS, CpuModel
from ..baselines.local_log import LocalDiskLog
from ..client.log_client import SimLogClient
from ..client.backends import SimLogBackend
from ..client.node import ClientNode
from ..client.splitting import UndoCache
from ..core.config import ReplicationConfig
from ..core.epoch import LocalIdGenerator, make_generator
from ..core.errors import NotEnoughServers, ServerUnavailable
from ..core.intervals import MergedIntervalMap
from ..core.procedure import run
from ..core.recovery import install_preference, recover
from ..core.replicated_log import ReplicatedLog
from ..core.store import LogServerStore, store_performer
from ..core.availability import AvailabilityPoint
from ..net.lan import DualLan, Lan
from ..server.load import RandomAssignment, StickyAssignment
from ..server.log_server import SimLogServer
from ..sim.kernel import Simulator
from ..sim.stats import MetricSet
from ..storage.append_forest import AppendForest
from ..storage.disk import SLOW_1987_DISK, DiskParams, SimDisk
from ..workload.et1 import Et1Driver, Et1Params, et1_log_pattern
from ..workload.generators import LongTxnParams, transactional_mix


def _drain(gen):
    """Run a no-yield generator to completion, returning its value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# E2 / A5 / E8: availability of the shipped code over every down-set
# ---------------------------------------------------------------------------


def run_down_sets(
    m: int, p: float, trial: Callable[[tuple[bool, ...]], tuple[bool, ...]],
) -> list[float]:
    """Exact availability of ``trial``'s operations over ``m`` nodes.

    ``trial(down)`` runs its operations with node ``i`` down iff
    ``down[i]`` and reports whether each succeeded.  It is run once for
    each of the 2^m down-sets, and each outcome is weighted by
    p^k (1−p)^(m−k), the probability of that down-set when the nodes
    fail independently with probability ``p`` (§3.2).
    """
    weights, outcomes = [], []
    for down in itertools.product((False, True), repeat=m):
        k = sum(down)
        weights.append(p**k * (1 - p) ** (m - k))
        outcomes.append(trial(down))
    return [math.fsum(weight for weight, ok in zip(weights, column) if ok)
            for column in zip(*outcomes)]


def _succeeds(operation: Callable[[], object]) -> bool:
    try:
        operation()
    except (ServerUnavailable, NotEnoughServers):
        return False
    return True


def run_availability_point(m: int, n: int, p: float) -> AvailabilityPoint:
    """WriteLog, client restart and ReadLog availability of
    :class:`ReplicatedLog` over ``m`` stores, by :func:`run_down_sets`.

    For each down-set: a fresh log writes a probe record, the servers
    in the down-set crash, and the log reads the probe, writes a record,
    crashes and runs ``initialize()``.  The generator's representatives
    stay up: the paper's footnote says they do not limit availability.
    """
    def operations(down: tuple[bool, ...]) -> tuple[bool, bool, bool]:
        stores = {f"s{i}": LogServerStore(f"s{i}") for i in range(m)}
        log = ReplicatedLog("client", stores,
                            ReplicationConfig(m, n, delta=1),
                            make_generator(2 * n + 1))
        log.initialize()
        probe = log.write(b"probe")
        for store, is_down in zip(stores.values(), down):
            if is_down:
                store.crash()
        read = _succeeds(lambda: log.read(probe))
        write = _succeeds(lambda: log.write(b"w"))
        log.crash()
        return write, _succeeds(log.initialize), read

    write, init, read = run_down_sets(m, p, operations)
    return AvailabilityPoint(m, n, p, write, init, read)


def run_availability_grid() -> dict[int, list[AvailabilityPoint]]:
    """E2 and A5: :func:`run_availability_point` at every Figure 3-4
    point (N = 2, 3; M = N..8), p = 0.05; keyed like
    :func:`repro.core.availability.figure_3_4_series`."""
    return {n: [run_availability_point(m, n, 0.05) for m in range(n, 9)]
            for n in (2, 3)}


@dataclass(frozen=True, slots=True)
class GeneratorMeasurement:
    n_reps: int
    p: float
    available: float
    monotone: bool


def run_generator_grid() -> list[GeneratorMeasurement]:
    """E8 at p = 0.05: one generator's NewID over every down-set of its
    1, 3, 5 and 7 representatives, and whether the ids it issued rose."""
    p = 0.05
    grid = []
    for n_reps in (1, 3, 5, 7):
        generator = make_generator(n_reps)
        issued: list[int] = []

        def new_id(down: tuple[bool, ...]) -> tuple[bool]:
            for rep, is_down in zip(generator.representatives, down):
                rep.available = not is_down
            return (_succeeds(lambda: issued.append(generator.new_id())),)

        (available,) = run_down_sets(n_reps, p, new_id)
        grid.append(GeneratorMeasurement(
            n_reps, p, available,
            monotone=all(a < b for a, b in zip(issued, issued[1:]))))
    return grid


# ---------------------------------------------------------------------------
# E4: the Section 4.1 target load, measured in the full simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TargetLoadConfig:
    clients: int = 50
    servers: int = 6
    copies: int = 2
    tps_per_client: float = 10.0
    duration_s: float = 5.0
    seed: int = 0
    mips: float = DEFAULT_MIPS
    disk: DiskParams = SLOW_1987_DISK
    delta: int = 32
    dual_network: bool = True
    bandwidth_bps: float = 10e6
    et1: Et1Params = Et1Params()


@dataclass(slots=True)
class TargetLoadResult:
    config: TargetLoadConfig
    completed_txns: int
    achieved_tps: float
    force_mean_ms: float
    force_p95_ms: float
    rpcs_per_server_s: float
    packets_per_server_s: float
    server_cpu_utilization: float
    server_disk_utilization: float
    network_mbits_s: float
    per_network_utilization: tuple[float, ...]
    bytes_per_server_s: float
    messages_shed: int
    failed_drivers: int
    #: wall-clock cost of the whole run (setup + simulation), and the
    #: kernel's own work accounting — process resumptions executed and
    #: simulated seconds covered — so benchmarks can report events/sec
    #: and the sim-time/wall-time ratio without re-instrumenting.
    kernel_events: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.kernel_events / self.wall_seconds

    @property
    def sim_time_ratio(self) -> float:
        """Simulated seconds advanced per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sim_seconds / self.wall_seconds

    def rows(self) -> list[tuple[str, str, str]]:
        """Measured values next to expectations derived from the config.

        Expectations come from the Section 4.1 arithmetic applied to
        the *achieved* TPS and this run's M/N/client counts, so the
        table stays meaningful for non-default configurations.
        """
        cfg = self.config
        tps = self.achieved_tps
        target_tps = cfg.clients * cfg.tps_per_client
        exp_rpcs = tps * cfg.copies / cfg.servers
        exp_bytes = tps * cfg.et1.bytes_per_txn * cfg.copies / cfg.servers
        # one ~970-byte force packet + one ~96-byte ack per copy
        exp_bits = tps * cfg.copies * (970 + 96) * 8
        return [
            ("achieved TPS", f"{tps:.0f}", f"{target_tps:.0f} target"),
            ("force msgs/server/s (≈RPCs)",
             f"{self.rpcs_per_server_s:.0f}", f"~{exp_rpcs:.0f}"),
            ("network load (Mbit/s)",
             f"{self.network_mbits_s:.1f}", f"~{exp_bits / 1e6:.1f}"),
            ("server CPU utilization (%)",
             f"{self.server_cpu_utilization * 100:.1f}", "<20-30"),
            ("server disk utilization (%)",
             f"{self.server_disk_utilization * 100:.1f}",
             "~50 at the 500-TPS target (slow disks)"),
            ("force latency mean (ms)",
             f"{self.force_mean_ms:.2f}", "low (NVRAM, no disk wait)"),
            ("log bytes/server/s",
             f"{self.bytes_per_server_s:,.0f}", f"~{exp_bytes:,.0f}"),
        ]


def run_target_load(config: TargetLoadConfig = TargetLoadConfig()) -> TargetLoadResult:
    """Simulate the paper's 500-TPS configuration end to end."""
    wall_start = time.perf_counter()
    sim = Simulator()
    metrics = MetricSet()
    rng = random.Random(config.seed)
    net_a = Lan(sim, bandwidth_bps=config.bandwidth_bps,
                rng=random.Random(config.seed + 1), name="lan-a")
    net_b = Lan(sim, bandwidth_bps=config.bandwidth_bps,
                rng=random.Random(config.seed + 2), name="lan-b")
    network = DualLan(net_a, net_b) if config.dual_network else net_a

    server_ids = [f"s{i}" for i in range(config.servers)]
    servers = {
        sid: SimLogServer(sim, network, sid, disk_params=config.disk,
                          mips=config.mips, metrics=metrics)
        for sid in server_ids
    }
    generator = make_generator(3)

    clients: list[SimLogClient] = []
    drivers: list[Et1Driver] = []
    for i in range(config.clients):
        preferred = [
            server_ids[i % config.servers],
            server_ids[(i + 1) % config.servers],
        ]
        client = SimLogClient(
            sim, network, f"c{i}", server_ids,
            ReplicationConfig(config.servers, config.copies, delta=config.delta),
            generator, mips=config.mips, metrics=metrics,
            assignment=StickyAssignment(preferred),
            rng=random.Random(config.seed + 100 + i),
        )
        clients.append(client)
        drivers.append(Et1Driver(
            sim, SimLogBackend(client), config.tps_per_client,
            random.Random(config.seed + 1000 + i), metrics,
            name=f"c{i}", params=config.et1,
        ))

    marks = {"start": 0.0, "end": 0.0}
    snapshots: dict[str, tuple[float, float]] = {}

    def snapshot() -> dict[str, tuple[float, float]]:
        return {
            sid: (srv.cpu.busy_integral(), srv.disk.arm.busy_integral())
            for sid, srv in servers.items()
        }

    def main():
        for client in clients:
            yield from client.initialize()
        marks["start"] = sim.now
        start_busy = snapshot()
        procs = [
            sim.spawn(driver.run(config.duration_s), name=driver.name)
            for driver in drivers
        ]
        yield sim.all_of(procs)
        marks["end"] = sim.now
        end_busy = snapshot()
        snapshots["cpu"] = sum(
            end_busy[sid][0] - start_busy[sid][0] for sid in servers
        )
        snapshots["disk"] = sum(
            end_busy[sid][1] - start_busy[sid][1] for sid in servers
        )

    sim.spawn(main(), name="target-load")
    sim.run(until=warm_deadline(config))

    if marks["end"] <= marks["start"]:
        raise RuntimeError("target-load drivers did not finish; raise the deadline")
    elapsed = marks["end"] - marks["start"]
    completed = sum(d.completed for d in drivers)
    failed = sum(d.failed for d in drivers)

    # aggregate per-server counters
    def total(counter_suffix: str) -> float:
        return sum(
            metrics.counter(f"{sid}.{counter_suffix}").total
            for sid in server_ids
        )

    rpcs = total("force_msgs") / config.servers / elapsed
    packets = (total("packets_in") + total("packets_out")) / config.servers / elapsed
    bytes_stored = total("bytes_stored") / config.servers / elapsed
    window = elapsed * config.servers
    cpu = snapshots["cpu"] / window
    disk = snapshots["disk"] / window
    if config.dual_network:
        net_bits = (net_a.bytes_sent.total + net_b.bytes_sent.total) * 8 / elapsed
        n_nets = 2
    else:
        net_bits = net_a.bytes_sent.total * 8 / elapsed
        n_nets = 1
    # mean fraction of each network's bandwidth consumed by the load
    per_net = tuple(
        net_bits / n_nets / config.bandwidth_bps for _ in range(n_nets)
    )

    forces = [metrics.latency(f"c{i}.force") for i in range(config.clients)]
    all_forces = [v for lat in forces for v in lat._values]
    force_mean = sum(all_forces) / len(all_forces) if all_forces else 0.0
    all_forces.sort()
    p95 = all_forces[int(0.95 * (len(all_forces) - 1))] if all_forces else 0.0

    return TargetLoadResult(
        config=config,
        completed_txns=completed,
        achieved_tps=completed / elapsed,
        force_mean_ms=force_mean * 1000,
        force_p95_ms=p95 * 1000,
        rpcs_per_server_s=rpcs,
        packets_per_server_s=packets,
        server_cpu_utilization=cpu,
        server_disk_utilization=disk,
        network_mbits_s=net_bits / 1e6,
        per_network_utilization=per_net,
        bytes_per_server_s=bytes_stored,
        messages_shed=sum(s.messages_shed for s in servers.values()),
        failed_drivers=failed,
        kernel_events=sim.events_processed,
        wall_seconds=time.perf_counter() - wall_start,
        sim_seconds=sim.now,
    )


def warm_deadline(config: TargetLoadConfig) -> float:
    """Generous wall for the run: init + workload + drain."""
    return config.duration_s + 30.0


# ---------------------------------------------------------------------------
# E5: the Section 5.6 prototype comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PrototypeComparison:
    transactions: int
    remote_elapsed_s: float
    local_elapsed_s: float

    @property
    def ratio(self) -> float:
        return self.remote_elapsed_s / self.local_elapsed_s


def run_prototype_comparison(
    transactions: int = 200,
    accent_instructions_per_packet: int = 3200,
    mips: float = 1.0,
    disk: DiskParams = SLOW_1987_DISK,
    seed: int = 0,
) -> PrototypeComparison:
    """Section 5.6: remote logging to two servers vs one local disk.

    The April-1986 prototype logged "to virtual memory on two remote
    servers" over Accent IPC, which the paper itself notes "is not as
    low level or efficient as Section 4.1 suggests is necessary".  The
    remote side therefore runs with an Accent-like per-packet cost
    (``accent_instructions_per_packet`` at ``mips``); the local side is
    classic group-commit logging to a single disk.  The paper's result:
    remote took *less than twice* the local elapsed time.
    """
    et1 = Et1Params()

    # --- remote: 1 client, 2 servers, N=2, expensive IPC, VM storage ----
    sim_r = Simulator()
    lan = Lan(sim_r, rng=random.Random(seed))
    metrics_r = MetricSet()
    accent = CpuModel(mips=mips,
                      instructions_per_packet=accent_instructions_per_packet)
    for sid in ("r0", "r1"):
        SimLogServer(sim_r, lan, sid, metrics=metrics_r, cpu_model=accent)
    client = SimLogClient(
        sim_r, lan, "proto-client", ["r0", "r1"],
        ReplicationConfig(2, 2, delta=32), LocalIdGenerator(),
        metrics=metrics_r, cpu_model=accent,
        force_timeout_s=5.0,
    )
    driver_r = Et1Driver(sim_r, SimLogBackend(client), tps=1e9,
                         rng=random.Random(seed), metrics=metrics_r,
                         name="remote", params=et1)
    elapsed_remote = {}

    def remote_main():
        yield from client.initialize()
        start = sim_r.now
        for seq in range(transactions):
            yield from driver_r.run_one(seq)
        elapsed_remote["t"] = sim_r.now - start

    sim_r.spawn(remote_main())
    sim_r.run(until=3600)

    # --- local: one disk on the processing node -------------------------------
    sim_l = Simulator()
    metrics_l = MetricSet()
    local_disk = SimDisk(sim_l, disk, name="local.disk")
    local_log = LocalDiskLog(sim_l, local_disk, metrics=metrics_l)
    driver_l = Et1Driver(sim_l, local_log, tps=1e9,
                         rng=random.Random(seed), metrics=metrics_l,
                         name="local", params=et1)
    elapsed_local = {}

    def local_main():
        start = sim_l.now
        for seq in range(transactions):
            yield from driver_l.run_one(seq)
        elapsed_local["t"] = sim_l.now - start

    sim_l.spawn(local_main())
    sim_l.run(until=3600)

    return PrototypeComparison(
        transactions=transactions,
        remote_elapsed_s=elapsed_remote["t"],
        local_elapsed_s=elapsed_local["t"],
    )


def run_prototype_pair(
    transactions: int,
) -> tuple[PrototypeComparison, PrototypeComparison]:
    """E5 twice: with Accent-era IPC (the 1986 prototype), and with the
    specialized 1000-instruction protocols of Section 4.1 at 4 MIPS."""
    accent = run_prototype_comparison(transactions=transactions)
    efficient = run_prototype_comparison(
        transactions=transactions, accent_instructions_per_packet=1000,
        mips=4.0)
    return accent, efficient


# ---------------------------------------------------------------------------
# E6: the Figure 3-1 / 3-2 / 3-3 worked example
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class PaperFigureStates:
    """Server tables after each step of the Figures 3-1..3-3 scenario."""

    figure_3_2: dict[str, list[tuple[int, int, str]]] = field(default_factory=dict)
    figure_3_3: dict[str, list[tuple[int, int, str]]] = field(default_factory=dict)
    replicated_log_contents: list[int] = field(default_factory=list)


def run_paper_figure_states() -> PaperFigureStates:
    """Recreate the exact server states of Figures 3-1, 3-2 and 3-3.

    History implied by the figures and footnote 2:

    * epoch 1: records 1–3 written to Servers 1 and 2;
    * crash; restart uses Servers 1 and 3 (epoch 3 after the identifier
      generator burned epoch 2): record 3 copied, guard 4 written —
      hence record 4 "only appears as marked not present";
    * epoch 3: records 5–9 written (Server 1 always, spread of 3/2 over
      Servers 2 and 3 per the figure);
    * record 10 written to Server 3 only — the partial write of
      Figure 3-2;
    * crash; restart uses Servers 1 and 2 (epoch 4): record 9 copied,
      guard 10 written — Figure 3-3.
    """
    stores = {
        "Server 1": LogServerStore("Server 1"),
        "Server 2": LogServerStore("Server 2"),
        "Server 3": LogServerStore("Server 3"),
    }
    config = ReplicationConfig(total_servers=3, copies=2, delta=1)
    client = "C"
    perform = store_performer(stores, client)

    def restart_with(used: tuple[str, str], epoch: int) -> None:
        """Steps 3–5 of a restart over the lists of ``used``, copying
        to ``used`` first."""
        lists = [stores[s].interval_list(client) for s in used]
        run(recover(
            MergedIntervalMap.merge(lists), used, epoch, config.copies,
            config.delta, install_preference(sorted(stores), used),
        ), perform)

    # epoch 1: records 1..3 on servers 1 and 2
    for lsn in range(1, 4):
        for sid in ("Server 1", "Server 2"):
            stores[sid].server_write_log(client, lsn, 1, True, b"r%d" % lsn)

    # first restart, using servers 1 and 3, with epoch 3
    restart_with(("Server 1", "Server 3"), 3)

    # epoch 3: records 5..9; server 1 takes all, servers 2/3 split per figure
    placement = {5: "Server 3", 6: "Server 2", 7: "Server 2",
                 8: "Server 3", 9: "Server 3"}
    for lsn in range(5, 10):
        stores["Server 1"].server_write_log(client, lsn, 3, True, b"r%d" % lsn)
        stores[placement[lsn]].server_write_log(client, lsn, 3, True, b"r%d" % lsn)

    # record 10 partially written: reaches Server 3 only (Figure 3-2)
    stores["Server 3"].server_write_log(client, 10, 3, True, b"r10")
    fig_3_2 = {sid: st.dump_table(client) for sid, st in stores.items()}

    # second restart with Servers 1 and 2 (Server 3 unavailable), epoch 4
    stores["Server 3"].crash()
    restart_with(("Server 1", "Server 2"), 4)
    stores["Server 3"].restart()
    fig_3_3 = {sid: st.dump_table(client) for sid, st in stores.items()}

    # the replicated log's visible contents after recovery
    log = ReplicatedLog(client, stores, config, LocalIdGenerator(start=4))
    log.initialize()
    visible = [record.lsn for record in log.iter_forward()]

    return PaperFigureStates(
        figure_3_2=fig_3_2,
        figure_3_3=fig_3_3,
        replicated_log_contents=visible,
    )


# ---------------------------------------------------------------------------
# A2: NVRAM ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NvramAblationResult:
    with_nvram_force_ms: float
    without_nvram_force_ms: float
    with_nvram_disk_util: float
    without_nvram_disk_util: float

    @property
    def latency_ratio(self) -> float:
        return self.without_nvram_force_ms / max(self.with_nvram_force_ms, 1e-9)


def run_nvram_ablation(
    transactions: int = 300, seed: int = 0,
    disk: DiskParams = SLOW_1987_DISK,
) -> NvramAblationResult:
    """Force latency and disk utilization with and without NVRAM.

    Without the low-latency non-volatile buffer every force waits for a
    disk write — the rotational-latency wall Section 4.1 identifies.
    """
    results = {}
    for nvram_enabled in (True, False):
        sim = Simulator()
        lan = Lan(sim, rng=random.Random(seed))
        metrics = MetricSet()
        servers = [
            SimLogServer(sim, lan, f"n{i}", disk_params=disk,
                         metrics=metrics, nvram_enabled=nvram_enabled)
            for i in range(2)
        ]
        client = SimLogClient(
            sim, lan, "ablate", ["n0", "n1"],
            ReplicationConfig(2, 2, delta=32), LocalIdGenerator(),
            metrics=metrics, force_timeout_s=2.0,
        )
        driver = Et1Driver(sim, SimLogBackend(client), tps=1e9,
                           rng=random.Random(seed), metrics=metrics,
                           name="ablate")
        window = {}

        def main():
            yield from client.initialize()
            start_busy = sum(s.disk.arm.busy_integral() for s in servers)
            start = sim.now
            for seq in range(transactions):
                yield from driver.run_one(seq)
            window["busy"] = (
                sum(s.disk.arm.busy_integral() for s in servers) - start_busy
            )
            window["elapsed"] = sim.now - start

        sim.spawn(main())
        sim.run(until=3600)
        force = metrics.latency("ablate.force")
        disk_util = window["busy"] / (window["elapsed"] * len(servers))
        results[nvram_enabled] = (force.mean() * 1000, disk_util)
    return NvramAblationResult(
        with_nvram_force_ms=results[True][0],
        without_nvram_force_ms=results[False][0],
        with_nvram_disk_util=results[True][1],
        without_nvram_disk_util=results[False][1],
    )


# ---------------------------------------------------------------------------
# A4: load-assignment ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AssignmentAblationRow:
    strategy: str
    mean_force_ms: float
    p95_force_ms: float
    max_interval_list_len: int
    server_switches: int


def run_assignment_ablation(
    clients: int = 12,
    servers: int = 4,
    duration_s: float = 3.0,
    seed: int = 0,
) -> list[AssignmentAblationRow]:
    """Compare sticky vs random server assignment (Section 5.4).

    Sticky assignment keeps interval lists short; a client that rotates
    its write set after every transaction fragments intervals — the
    trade-off the paper flags ("clients might change servers too
    frequently resulting in very long interval lists").
    """
    rows = []
    for strategy_name in ("sticky", "rotate-often"):
        sim = Simulator()
        lan = Lan(sim, rng=random.Random(seed))
        metrics = MetricSet()
        server_ids = [f"s{i}" for i in range(servers)]
        server_objs = {
            sid: SimLogServer(sim, lan, sid, metrics=metrics)
            for sid in server_ids
        }
        generator = make_generator(3)
        client_objs = []
        drivers = []
        for i in range(clients):
            if strategy_name == "sticky":
                assignment = StickyAssignment([
                    server_ids[i % servers], server_ids[(i + 1) % servers],
                ])
            else:
                assignment = RandomAssignment(random.Random(seed + i))
            client = SimLogClient(
                sim, lan, f"c{i}", server_ids,
                ReplicationConfig(servers, 2, delta=32), generator,
                metrics=metrics, assignment=assignment,
            )
            client_objs.append(client)
            drivers.append(Et1Driver(
                sim, SimLogBackend(client), tps=10,
                rng=random.Random(seed + 50 + i), metrics=metrics,
                name=f"c{i}",
            ))

        def run_client(client: SimLogClient, driver: Et1Driver):
            t_end = sim.now + duration_s
            seq = 0
            while sim.now < t_end:
                yield sim.timeout(driver.rng.expovariate(driver.tps))
                if sim.now >= t_end:
                    break
                start = sim.now
                yield from driver.run_one(seq)
                driver.completed += 1
                metrics.latency(f"{driver.name}.txn").observe(sim.now - start)
                if strategy_name == "rotate-often":
                    yield from client.rotate_write_set()
                seq += 1

        def main():
            for client in client_objs:
                yield from client.initialize()
            procs = [
                sim.spawn(run_client(c, d))
                for c, d in zip(client_objs, drivers)
            ]
            yield sim.all_of(procs)

        sim.spawn(main())
        sim.run(until=duration_s + 30)

        all_forces = []
        for i in range(clients):
            all_forces.extend(metrics.latency(f"c{i}.force")._values)
        all_forces.sort()
        mean = sum(all_forces) / len(all_forces) if all_forces else 0.0
        p95 = all_forces[int(0.95 * (len(all_forces) - 1))] if all_forces else 0.0
        max_intervals = 0
        for server in server_objs.values():
            for cid in server.store.known_clients():
                max_intervals = max(
                    max_intervals,
                    len(server.store.client_state(cid).intervals()),
                )
        rows.append(AssignmentAblationRow(
            strategy=strategy_name,
            mean_force_ms=mean * 1000,
            p95_force_ms=p95 * 1000,
            max_interval_list_len=max_intervals,
            server_switches=sum(c.server_switches for c in client_objs),
        ))
    return rows


# ---------------------------------------------------------------------------
# A3: splitting ablation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SplittingAblationRow:
    mode: str
    transactions: int
    bytes_logged: int
    records_logged: int
    undo_records_logged: int
    remote_abort_reads: int
    local_aborts: int


# ---------------------------------------------------------------------------
# E9: degraded-mode operation (Section 3.2's qualitative claim)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DegradedModeRow:
    servers_down: int
    servers_up: int
    completed_txns: int
    failed_drivers: int
    mean_force_ms: float
    p95_force_ms: float
    survivor_cpu_utilization: float


def run_degraded_mode(
    clients: int = 12,
    servers: int = 4,
    down_counts: tuple[int, ...] = (0, 1, 2),
    duration_s: float = 2.0,
    tps_per_client: float = 10.0,
    seed: int = 0,
) -> list[DegradedModeRow]:
    """Measure WriteLog service as servers fail (Section 3.2).

    "Response to WriteLog operations may degrade, as fewer servers
    remain to carry the load, but such failures will hardly ever
    render WriteLog operations unavailable."  Each row runs the same
    closed-loop ET1 load with ``down`` servers crashed before the
    clients initialize, so the surviving servers carry everything.
    """
    rows = []
    for down in down_counts:
        if servers - down < 2:
            raise ValueError("need at least N=2 servers up")
        sim = Simulator()
        lan = Lan(sim, rng=random.Random(seed))
        metrics = MetricSet()
        server_ids = [f"d{i}" for i in range(servers)]
        server_objs = {
            sid: SimLogServer(sim, lan, sid, metrics=metrics)
            for sid in server_ids
        }
        generator = make_generator(3)
        up_ids = server_ids[down:]
        client_objs = []
        drivers = []
        for i in range(clients):
            client = SimLogClient(
                sim, lan, f"c{i}", server_ids,
                ReplicationConfig(servers, 2, delta=32), generator,
                metrics=metrics,
                assignment=StickyAssignment([
                    up_ids[i % len(up_ids)],
                    up_ids[(i + 1) % len(up_ids)],
                ]),
            )
            client_objs.append(client)
            drivers.append(Et1Driver(
                sim, SimLogBackend(client), tps_per_client,
                random.Random(seed + i), metrics, name=f"c{i}",
            ))

        window = {}

        def main():
            # clients initialize while everything is up (client restart
            # has its own, stricter availability — Figure 3-4)…
            for client in client_objs:
                yield from client.initialize()
            # …then the outage hits, and WriteLog must carry on.
            for sid in server_ids[:down]:
                server_objs[sid].crash()
            start_busy = sum(
                server_objs[sid].cpu.busy_integral() for sid in up_ids)
            start = sim.now
            procs = [sim.spawn(d.run(duration_s)) for d in drivers]
            yield sim.all_of(procs)
            window["elapsed"] = sim.now - start
            window["busy"] = sum(
                server_objs[sid].cpu.busy_integral() for sid in up_ids
            ) - start_busy

        sim.spawn(main())
        sim.run(until=duration_s + 60)

        forces = []
        for i in range(clients):
            forces.extend(metrics.latency(f"c{i}.force")._values)
        forces.sort()
        mean = sum(forces) / len(forces) if forces else 0.0
        p95 = forces[int(0.95 * (len(forces) - 1))] if forces else 0.0
        rows.append(DegradedModeRow(
            servers_down=down,
            servers_up=len(up_ids),
            completed_txns=sum(d.completed for d in drivers),
            failed_drivers=sum(d.failed for d in drivers),
            mean_force_ms=mean * 1000,
            p95_force_ms=p95 * 1000,
            survivor_cpu_utilization=(
                window["busy"] / (window["elapsed"] * len(up_ids))
                if window.get("elapsed") else 0.0
            ),
        ))
    return rows


# ---------------------------------------------------------------------------
# E10: client restart latency
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RestartLatencyRow:
    m: int
    intervals_merged: int
    mean_restart_ms: float
    max_restart_ms: float


def run_restart_latency(
    m_values: tuple[int, ...] = (2, 4, 6, 8),
    records: int = 150,
    restarts: int = 5,
    delta: int = 8,
    seed: int = 0,
) -> list[RestartLatencyRow]:
    """Measure client-initialization time over the network vs M.

    The paper stops at availability ("predicting the expected time for
    client process initialization to complete requires a more
    complicated model"); the simulator simply measures it.  Cost
    components: M sequential IntervalList RPCs, reading the last δ
    records (a disk read per sealed track touched), and CopyLog +
    InstallCopies on N servers.
    """
    rows = []
    for m in m_values:
        sim = Simulator()
        lan = Lan(sim, rng=random.Random(seed))
        metrics = MetricSet()
        server_ids = [f"r{i}" for i in range(m)]
        servers = {sid: SimLogServer(sim, lan, sid, metrics=metrics)
                   for sid in server_ids}
        client = SimLogClient(
            sim, lan, "c", server_ids,
            ReplicationConfig(m, 2, delta=delta), make_generator(3),
            metrics=metrics,
        )
        samples: list[float] = []
        state = {"intervals": 0}

        def main():
            yield from client.initialize()
            for i in range(records):
                yield from client.log(b"r%d" % i)
                if i % 10 == 9:
                    yield from client.force()
            yield from client.force()
            # let the servers flush so restarts read from disk
            yield sim.timeout(1.0)
            for _round in range(restarts):
                client.crash()
                start = sim.now
                yield from client.restart()
                samples.append(sim.now - start)
            state["intervals"] = sum(
                len(server.store.client_state("c").intervals())
                for server in servers.values()
                if "c" in server.store.known_clients()
            )

        sim.spawn(main())
        sim.run(until=600)
        rows.append(RestartLatencyRow(
            m=m,
            intervals_merged=state["intervals"],
            mean_restart_ms=sum(samples) / len(samples) * 1000,
            max_restart_ms=max(samples) * 1000,
        ))
    return rows


# ---------------------------------------------------------------------------
# A9: offered-load saturation sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LoadSweepRow:
    tps_per_client: float
    achieved_tps: float
    mean_force_ms: float
    p95_force_ms: float
    disk_utilization: float
    cpu_utilization: float
    messages_shed: int


def run_load_sweep(
    multipliers: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    clients: int = 10,
    servers: int = 2,
    base_tps: float = 10.0,
    duration_s: float = 2.0,
    seed: int = 0,
) -> list[LoadSweepRow]:
    """Force latency and utilization as offered load scales up.

    Exposes the saturation behaviour behind Section 4.1's sizing: at
    the nominal per-server load forces are NVRAM-fast; as load grows
    the disk (then NVRAM back-pressure, i.e. shedding) takes over.
    """
    rows = []
    for multiplier in multipliers:
        config = TargetLoadConfig(
            clients=clients, servers=servers,
            tps_per_client=base_tps * multiplier,
            duration_s=duration_s, seed=seed,
        )
        result = run_target_load(config)
        rows.append(LoadSweepRow(
            tps_per_client=base_tps * multiplier,
            achieved_tps=result.achieved_tps,
            mean_force_ms=result.force_mean_ms,
            p95_force_ms=result.force_p95_ms,
            disk_utilization=result.server_disk_utilization,
            cpu_utilization=result.server_cpu_utilization,
            messages_shed=result.messages_shed,
        ))
    return rows


# ---------------------------------------------------------------------------
# A7: multicast (Section 4.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MulticastAblationResult:
    unicast_mbits: float
    multicast_mbits: float
    unicast_medium_busy_s: float
    multicast_medium_busy_s: float

    @property
    def traffic_ratio(self) -> float:
        return self.multicast_mbits / self.unicast_mbits


def run_multicast_ablation(
    clients: int = 20,
    copies: int = 2,
    forces_per_client: int = 50,
    seed: int = 0,
) -> MulticastAblationResult:
    """Section 4.1: "With the use of multicast, this amount would be
    approximately halved."

    Streams identical ET1-force-shaped packets from ``clients`` senders
    to ``copies`` receivers each, once with per-server unicast and once
    with one multicast per force, and measures total bits on the wire
    and medium busy time.
    """
    from ..net.packet import Packet

    results = {}
    for multicast in (False, True):
        sim = Simulator()
        lan = Lan(sim, rng=random.Random(seed))
        receivers = [f"srv{i}" for i in range(copies)]
        for sid in receivers:
            lan.attach(sid)

        def sender(name: str):
            lan.attach(name)
            for seq in range(forces_per_client):
                payload_size = 700 + 7 * 16 + 32  # the ET1 force message
                packet = Packet(
                    src=name, dst=receivers[0], conn_id=1, seq=seq + 1,
                    allocation=64,
                    payload=type("P", (), {"wire_size": payload_size})(),
                )
                if multicast:
                    yield from lan.multicast(packet, receivers)
                else:
                    for dst in receivers:
                        yield from lan.send(Packet(
                            src=name, dst=dst, conn_id=1, seq=seq + 1,
                            allocation=64, payload=packet.payload,
                        ))
                yield sim.timeout(0.01)

        for i in range(clients):
            sim.spawn(sender(f"cl{i}"))
        sim.run(until=600)
        results[multicast] = (
            lan.bytes_sent.total * 8 / 1e6,
            lan.medium.busy_integral(),
        )
    return MulticastAblationResult(
        unicast_mbits=results[False][0],
        multicast_mbits=results[True][0],
        unicast_medium_busy_s=results[False][1],
        multicast_medium_busy_s=results[True][1],
    )


# ---------------------------------------------------------------------------
# A6: log space management (Section 5.3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SpaceManagementRow:
    strategy: str
    total_bytes_logged: int
    online_bytes: int
    offline_bytes: int
    node_recovery_entries: int
    media_recovery_entries: int
    superseded_records: int


def run_space_management(
    transactions: int = 120,
    dump_every: int = 30,
    seed: int = 0,
) -> list[SpaceManagementRow]:
    """Compare the Section 5.3 space-management strategies.

    The same transaction history runs under three server-side
    strategies: *accumulate* (the paper's simple daily-dump strategy —
    keep everything online), *spool* (move log data below the node-
    recovery point to offline storage), and *dump+discard* (drop data
    below the media-recovery point after each dump).  The rows report
    online/offline bytes and how many log entries each recovery class
    would read.
    """
    from ..client.dumps import DumpManager
    from ..server.space import SpaceManager

    rows = []
    for strategy in ("accumulate", "spool", "dump+discard"):
        sim = Simulator()
        lan = Lan(sim, rng=random.Random(seed))
        metrics = MetricSet()
        servers = [
            SimLogServer(sim, lan, f"sp{i}", metrics=metrics)
            for i in range(2)
        ]
        client = SimLogClient(
            sim, lan, "c1", ["sp0", "sp1"],
            ReplicationConfig(2, 2, delta=16), LocalIdGenerator(),
            metrics=metrics,
        )
        node = ClientNode.simulated(client)
        dumps = DumpManager(node.rm)
        managers = [SpaceManager(s.stream) for s in servers]
        rng = random.Random(seed)

        def main():
            yield from client.initialize()
            for seq in range(transactions):
                key = f"row:{rng.randrange(50)}"
                yield from node.run_transaction([(key, f"v{seq}")])
                if (seq + 1) % dump_every == 0:
                    dump_point = None
                    if strategy != "accumulate":
                        yield from dumps.take_dump()
                        dump_point = dumps.truncation_point()
                    for server, manager in zip(servers, managers):
                        server.stream.seal_track()
                        if dump_point is not None:
                            manager.declare("c1", dump_point)
                        if strategy == "spool":
                            manager.spool_to_offline()
                        elif strategy == "dump+discard":
                            manager.discard_unneeded()

        sim.spawn(main())
        sim.run(until=600)

        total = sum(s.stream.bytes_appended for s in servers)
        online = offline = node_entries = media_entries = superseded = 0
        for manager in managers:
            manager._refresh_online()
            online += manager.report.online_bytes
            offline += manager.report.spooled_bytes
            node_entries += manager.online_entries_for_node_recovery("c1")
            media_entries += manager.entries_for_media_recovery("c1")
            superseded += manager.compress_superseded()
        rows.append(SpaceManagementRow(
            strategy=strategy,
            total_bytes_logged=total,
            online_bytes=online,
            offline_bytes=offline,
            node_recovery_entries=node_entries,
            media_recovery_entries=media_entries,
            superseded_records=superseded,
        ))
    return rows


def _mix_with_midstream_cleans(node, rng, params: LongTxnParams):
    """One long transaction; occasionally cleans a dirty page mid-flight.

    Mirrors :func:`~repro.workload.generators.transactional_mix` but
    with a small per-update probability of the buffer manager cleaning
    a dirty page while the transaction is still active — the event that
    forces a cached undo component into the log (Section 5.2).
    """
    p = params
    n_updates = rng.randint(p.updates_min, p.updates_max)
    will_abort = rng.random() < p.abort_probability
    abort_at = rng.randint(1, n_updates) if will_abort else -1
    txn = yield from node.rm.begin()
    for i in range(n_updates):
        if i == abort_at:
            yield from node.rm.abort(txn)
            return True
        key = f"obj:{rng.randrange(p.keys)}"
        yield from node.rm.update(txn, key, f"v{txn.txid}.{i}")
        if rng.random() < 0.05:
            dirty = node.db.dirty_keys()
            if dirty:
                yield from node.rm.clean_page(rng.choice(dirty))
    yield from node.rm.commit(txn)
    return False


def run_splitting_ablation(
    transactions: int = 60,
    seed: int = 0,
    params: LongTxnParams = LongTxnParams(
        updates_min=10, updates_max=40, abort_probability=0.15, keys=500,
    ),
    clean_every: int = 10,
) -> list[SplittingAblationRow]:
    """Log volume and abort locality with and without record splitting.

    Runs the same long-transaction mix (same seed) through a node with
    combined records and a node with split records + undo cache, and
    compares bytes logged, undo components that ever reached the log,
    and the abort read traffic (Section 5.2).  Page cleaning runs both
    between transactions (the common case, where splitting saves the
    undo volume entirely) and occasionally *during* a transaction (the
    WAL case, where the undo component must be logged first).
    """
    rows = []
    for mode in ("combined", "split"):
        undo_cache = UndoCache() if mode == "split" else None
        node, _stores = ClientNode.direct(m=3, n=2, delta=1,
                                          undo_cache=undo_cache)
        rng = random.Random(seed)
        for seq in range(transactions):
            _drain(_mix_with_midstream_cleans(node, rng, params))
            if (seq + 1) % clean_every == 0:
                _drain(node.rm.clean_all())
        rows.append(SplittingAblationRow(
            mode=mode,
            transactions=transactions,
            bytes_logged=node.rm.bytes_logged,
            records_logged=node.rm.records_logged,
            undo_records_logged=node.rm.undo_records_logged,
            remote_abort_reads=node.rm.remote_abort_reads,
            local_aborts=node.rm.local_aborts,
        ))
    return rows


# ---------------------------------------------------------------------------
# E7: the append-forest (Figures 4-2 / 4-3, Section 4.3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AppendForestResult:
    #: tree heights of the eleven-node forest of Figure 4-3
    example_heights: list[int]
    appends: int
    #: page writes made by ``appends`` appends
    page_writes: int
    #: (nodes, mean hops, worst hops, 2·⌈log2(n+1)⌉+1 bound, trees)
    search_cost: list[tuple[int, float, int, int, int]]


def _build_forest(n: int) -> AppendForest:
    forest = AppendForest()
    for key in range(1, n + 1):
        forest.append_key(key, key)
    return forest


def run_append_forest() -> AppendForestResult:
    """E7: the 11-node example's shape, one page write per append over
    10 000 appends, and search hops over a sweep of forest sizes."""
    rows = []
    for n in (15, 63, 255, 1023, 4095, 16383):
        forest = _build_forest(n)
        worst = 0
        samples = range(1, n + 1, max(1, n // 257))
        total = 0
        for key in samples:
            forest.search(key)
            worst = max(worst, forest.last_search_hops)
            total += forest.last_search_hops
        mean = total / len(list(samples))
        bound = 2 * math.ceil(math.log2(n + 1)) + 1
        rows.append((n, mean, worst, bound, len(forest.tree_heights())))
    return AppendForestResult(
        example_heights=_build_forest(11).tree_heights(),
        appends=10_000,
        page_writes=_build_forest(10_000).store.appends,
        search_cost=rows,
    )
