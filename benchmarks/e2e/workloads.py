"""The five workloads (see README.md for why each exists).

Four run the real runtime — ``repro serve`` daemon processes over
loopback TCP with fsync'd ``FileLogStore``s, M=3, N=2, no placement
directory, so ``s1`` and ``s2`` carry the write set and ``s3`` idles —
and one runs the discrete-event stack.  Load is closed loop from one
generator thread: the paper's log has one writer per stream and a
transaction manager waits for its commit force, so a stream issues its
next commit only after the previous force returned.

Every workload returns a :class:`Result` whose ``e2e`` metrics are the
gated ones in ``BENCHMARK.json`` and whose ``layers`` are the
*cpu*-source per-layer metrics (``/proc`` and ``StatsCall`` deltas over
the quiescent-to-quiescent load phase) plus the ungated client-side
distributions.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro.core.config import ReplicationConfig
from repro.core.errors import LogError
from repro.rt.client import AsyncReplicatedLog
from repro.rt.placement import derive_client_seed
from repro.workload.et1 import et1_log_pattern

from .harness import (
    COPIES,
    ERROR_COUNTERS,
    QUIET_FRACTION,
    SERVERS,
    SRC,
    Cluster,
    counter_delta,
    median,
    payload,
    percentile,
    pin_generator,
    proc_peak_rss_mb,
    quiet_median,
    quiet_rate,
    self_cpu_seconds,
)

#: simulated seconds per ``run_target_load`` call (≈ 0.45 s of wall):
#: short, so a window holds enough calls to find its quiet decile.
SIM_DURATION_S = 4.0
#: restart_read's fixed preload, before ``Settings.scale``.
PRELOAD_RECORDS = 40_000
PRELOAD_RECORD_BYTES = 256
READBACK_SAMPLES = 200
VERIFY_SCAN_RECORDS = 2000
VERIFY_INITS = 5

Metric = tuple[float, str]


@dataclass
class Settings:
    seed: int
    window_s: float
    data_root: str
    warmup_s: float = 2.0
    #: multiplies the fixed counts (``--smoke`` and the traced pass: 1/4).
    scale: float = 1.0
    setup_reps: int = 5
    #: set for the traced pass: daemons run through ``traced_serve.py``.
    span_dir: str | None = None
    #: also time the extra restarts that only feed per-layer metrics
    #: (repeated ``initialize()``, daemon kill → banner); off in the
    #: runs that report end-to-end metrics only.
    extras: bool = True
    #: leave the daemons' directories behind for a post-mortem.
    keep: bool = False


@dataclass
class Result:
    workload: str
    e2e: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: sample counts, phase boundaries and counter deltas for reports
    #: and for the smoke test.
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


@dataclass(frozen=True)
class WriteProfile:
    name: str
    streams: int
    delta: int
    #: ``(size, kind, forced)`` per record of one commit.
    shape: tuple[tuple[int, str, bool], ...]
    #: what ``rate_per_s`` counts on this workload.
    op: str
    #: daemon memory is read when this many commits are acknowledged (a
    #: fixed count, so it does not grow with the run's throughput).
    rss_at_commits: int = 0

    @property
    def commit_bytes(self) -> int:
        return sum(size for size, _, _ in self.shape)

    @property
    def record_bytes(self) -> int:
        return self.shape[0][0]


_ET1_SHAPE = tuple((len(data), kind, forced)
                   for data, kind, forced in et1_log_pattern())
_BULK_SHAPE = tuple((1024, "data", i == 31) for i in range(32))
_PRELOAD_SHAPE = tuple((PRELOAD_RECORD_BYTES, "data", i == 31)
                       for i in range(32))

WRITE_PROFILES = {
    "et1_solo": WriteProfile("et1_solo", 1, 8, _ET1_SHAPE, "ET1 txn", 4000),
    "et1_fleet4": WriteProfile("et1_fleet4", 4, 8, _ET1_SHAPE, "ET1 txn",
                               6000),
    "bulk_stream": WriteProfile("bulk_stream", 1, 64, _BULK_SHAPE,
                                "32 KiB commit", 1200),
}
_PRELOAD = WriteProfile("restart_read", 1, 64, _PRELOAD_SHAPE,
                        "scanned record")

WORKLOADS = ("et1_solo", "et1_fleet4", "bulk_stream", "restart_read",
             "sim_target_load")


# -- one stream of closed-loop commits ---------------------------------------


@dataclass
class Stream:
    index: int
    log: AsyncReplicatedLog
    first_lsn: int = 0
    last_acked: int = 0
    #: ``(completion stamp, force latency)`` per commit.
    commits: list[tuple[float, float]] = field(default_factory=list)
    writes: int = 0


def _client_id(stream: int) -> str:
    return f"e2e-{stream}"


def _new_log(cluster: Cluster, profile: WriteProfile, stream: int,
             seed: int) -> AsyncReplicatedLog:
    return AsyncReplicatedLog(
        _client_id(stream), cluster.addresses(),
        ReplicationConfig(SERVERS, COPIES, delta=profile.delta),
        rng=random.Random(derive_client_seed(seed, stream)))


async def _commit_loop(stream: Stream, profile: WriteProfile, seed: int,
                       result: Result, *, deadline: float = 0.0,
                       commits: int = 0, on_commit=None) -> None:
    """Commits until ``deadline``, or exactly ``commits`` of them."""
    log = stream.log
    next_lsn = log.end_of_log() + 1
    stream.first_lsn = next_lsn
    done = 0
    try:
        while (done < commits) if commits else (perf_counter() < deadline):
            for size, kind, forced in profile.shape:
                lsn = await log.write(
                    payload(seed, stream.index, next_lsn, size), kind=kind)
                stream.writes += 1
                if lsn != next_lsn:
                    result.fail(f"stream {stream.index}: write returned LSN "
                                f"{lsn}, expected {next_lsn}")
                    next_lsn = lsn
                next_lsn += 1
                if forced:
                    t0 = perf_counter()
                    await log.force()
                    t1 = perf_counter()
                    stream.commits.append((t1, t1 - t0))
                    stream.last_acked = lsn
                    if on_commit is not None:
                        on_commit()
            done += 1
    except (LogError, OSError, asyncio.TimeoutError) as exc:
        result.fail(f"stream {stream.index}: {type(exc).__name__}: {exc}")
    finally:
        result.attempted += stream.writes + len(stream.commits)


# -- reads -------------------------------------------------------------------


async def _point_reads(log: AsyncReplicatedLog, stream: int, seed: int,
                       size: int, lsns, result: Result, *,
                       deadline: float = 0.0) -> list[tuple[float, float]]:
    """``read(lsn)`` for each of ``lsns`` (until ``deadline`` if set),
    each checked against the regenerated payload."""
    samples: list[tuple[float, float]] = []
    for lsn in lsns:
        if deadline and perf_counter() >= deadline:
            break
        t0 = perf_counter()
        try:
            record = await log.read(lsn)
        except (LogError, OSError, asyncio.TimeoutError) as exc:
            result.check(False, f"read({lsn}): {type(exc).__name__}: {exc}")
            continue
        t1 = perf_counter()
        samples.append((t1, t1 - t0))
        result.check(record.data == payload(seed, stream, lsn, size),
                     f"read({lsn}) returned different bytes than written")
    return samples


async def _scan(log: AsyncReplicatedLog, stream: int, seed: int, size: int,
                first: int, last: int, result: Result, *,
                deadline: float = 0.0,
                max_records: int = 0) -> list[tuple[float, int]]:
    """``read_forward`` from ``first``; every record checked.

    With a ``deadline`` the scan wraps from ``last`` back to ``first``
    until time is up; with ``max_records`` it stops after that many.
    Returns ``(completion stamp, records returned)`` per call.
    """
    calls: list[tuple[float, int]] = []
    lsn = first
    seen = 0
    while True:
        if deadline and perf_counter() >= deadline:
            break
        if max_records and seen >= max_records:
            break
        try:
            records = await log.read_forward(lsn)
        except (LogError, OSError, asyncio.TimeoutError) as exc:
            result.check(False,
                         f"read_forward({lsn}): {type(exc).__name__}: {exc}")
            break
        got = 0
        bad = 0
        for record in records:
            if record.lsn > last:
                break
            if (record.lsn != lsn + got or not record.present
                    or record.data != payload(seed, stream, record.lsn,
                                              size)):
                bad += 1
            got += 1
        calls.append((perf_counter(), got))
        result.check(got > 0 and bad == 0,
                     f"read_forward({lsn}): {got} records, {bad} wrong")
        if got == 0:
            break
        seen += got
        lsn += got
        if lsn > last:
            if not deadline:
                break
            lsn = first
    return calls


# -- shared phases of the runtime workloads ----------------------------------


def _throwaway_start(s: Settings) -> None:
    """One discarded cluster start: the first spawn of a run pays a
    cold page cache (0.76 s against 0.36 s warm)."""
    with Cluster(os.path.join(s.data_root, "throwaway")):
        pass


async def _load_phase(cluster: Cluster, streams: list[Stream],
                      profile: WriteProfile, s: Settings, result: Result,
                      *, commits: int = 0) -> dict:
    """Run the commit loops between two quiescent snapshots.

    Counters and CPU are read only while no load runs, so no
    ``StatsCall`` perturbs the measured window.  Daemon memory is read
    once, when the ``rss_at_commits``-th commit is acknowledged.
    """
    rss_at = max(1, int(profile.rss_at_commits * s.scale))
    acked = 0

    def on_commit() -> None:
        nonlocal acked
        acked += 1
        if acked == rss_at:
            cluster.sample_rss()

    stats0 = await cluster.stats()
    daemon_cpu0, self_cpu0 = cluster.cpu_seconds(), self_cpu_seconds()
    ns0 = perf_counter_ns()
    t0 = perf_counter()
    window_start = t0 + s.warmup_s
    window_end = window_start + s.window_s
    await asyncio.gather(*(
        _commit_loop(stream, profile, s.seed, result,
                     deadline=window_end, commits=commits,
                     on_commit=on_commit if profile.rss_at_commits else None)
        for stream in streams))
    t1 = perf_counter()
    ns1 = perf_counter_ns()
    daemon_cpu1, self_cpu1 = cluster.cpu_seconds(), self_cpu_seconds()
    stats1 = await cluster.stats()
    return {
        "rss_mb": cluster.peak_rss_mb, "rss_sampled": acked >= rss_at,
        "t0": t0, "t1": t1, "ns0": ns0, "ns1": ns1,
        "window": (window_start, window_end),
        "daemon_cpu_s": daemon_cpu1 - daemon_cpu0,
        "self_cpu_s": self_cpu1 - self_cpu0,
        "counters": counter_delta(stats0, stats1, cluster.daemons),
    }


def _cpu_layers(phase: dict, ops: int, forces: int, records: int,
                user_bytes: int) -> dict[str, Metric]:
    """The *cpu*-source per-layer metrics of one load phase.

    ``ops`` is the count the workload's ``rate_per_s`` is made of, over
    the whole phase (warm-up included, as the counters are).
    """
    wall = phase["t1"] - phase["t0"]
    counters = phase["counters"]
    fsyncs = counters["fsyncs"] or 1
    acked = counters["forces_acked"] or 1
    ops = ops or 1
    return {
        "proc.client_cpu_us_per_op": (1e6 * phase["self_cpu_s"] / ops,
                                      "us/op"),
        "proc.daemon_cpu_us_per_op": (1e6 * phase["daemon_cpu_s"] / ops,
                                      "us/op"),
        "proc.cores_busy": ((phase["self_cpu_s"] + phase["daemon_cpu_s"])
                            / wall, "cores"),
        "rt.server.fsyncs_per_force": (counters["fsyncs"] / acked, "ratio"),
        "rt.server.forces_per_group": (counters["forces_acked"] / fsyncs,
                                       "ratio"),
        "rt.server.messages_per_op": (counters["messages_handled"] / ops,
                                      "count"),
        "rt.server.send_iovecs_per_force": (counters["send_iovecs"] / acked,
                                            "count"),
        # per stored copy: 1.0 would be no framing overhead at all
        "rt.filestore.write_amp": (
            counters["bytes_appended"] / (COPIES * user_bytes or 1),
            "ratio"),
        "rt.filestore.records_per_fsync": (COPIES * records / fsyncs,
                                           "count"),
        "rt.filestore.user_bytes_per_fsync": (COPIES * user_bytes / fsyncs,
                                              "B"),
        "rt.client.forces_per_op": (forces / ops, "count"),
    }


async def _restart_and_verify(
        cluster: Cluster, profile: WriteProfile, spans: list[tuple],
        s: Settings, result: Result) -> dict[str, Metric]:
    """Restart as a fresh client with the same id, then read back.

    ``spans`` is ``(stream index, first LSN, last acked LSN)`` per
    stream.  Stream 0 restarts ``VERIFY_INITS`` times (timed); first,
    last and ``READBACK_SAMPLES`` seeded-random acked LSNs of every
    stream are read and compared with the regenerated payload; a short
    forward scan checks order; then each write-set daemon is killed and
    timed back to its banner.
    """
    init_s: list[float] = []
    read_s: list[float] = []
    scan_rate = 0.0
    write_set: tuple[str, ...] = ()
    rng = random.Random(s.seed ^ 0x5EED)
    for index, first, last in spans:
        if not result.check(last >= first,
                            f"stream {index} acked nothing"):
            continue
        log = None
        for _ in range(VERIFY_INITS if index == 0 and s.extras else 1):
            if log is not None:
                await log.close()
            log = _new_log(cluster, profile, index, s.seed)
            t0 = perf_counter()
            try:
                await log.initialize()
            except (LogError, OSError, asyncio.TimeoutError) as exc:
                result.check(False, f"restart of stream {index}: "
                                    f"{type(exc).__name__}: {exc}")
                await log.close()
                log = None
                break
            init_s.append(perf_counter() - t0)
            result.attempted += 1
        if log is None:
            continue
        try:
            write_set = log.write_set
            result.check(log.end_of_log() >= last,
                         f"stream {index}: end_of_log {log.end_of_log()} "
                         f"below last acked LSN {last}")
            lsns = [first, last] + [rng.randint(first, last)
                                    for _ in range(READBACK_SAMPLES)]
            read_s += [lat for _, lat in await _point_reads(
                log, index, s.seed, profile.record_bytes, lsns, result)]
            if index == 0:
                t0 = perf_counter()
                calls = await _scan(log, index, s.seed,
                                    profile.record_bytes, first, last,
                                    result, deadline=t0 + 1.0,
                                    max_records=VERIFY_SCAN_RECORDS)
                scan_rate = (sum(n for _, n in calls)
                             / (perf_counter() - t0))
            result.check(log.server_switches == 0,
                         f"stream {index}: {log.server_switches} server "
                         f"switches with nobody killed")
        finally:
            await log.close()

    final = await cluster.stats()
    for sid, counters in final.items():
        for name in ERROR_COUNTERS:
            result.check(counters[name] == 0,
                         f"daemon {sid}: {name} = {counters[name]}")

    restart_s = []
    for sid in write_set if s.extras else ():
        restart_s.append(cluster.restart(sid))
        result.attempted += 1
    layers: dict[str, Metric] = {}
    if init_s:
        layers["rt.client.initialize_ms"] = (1e3 * median(init_s), "ms/call")
    if read_s:
        layers["rt.client.read_p50_us"] = (1e6 * median(read_s), "us/call")
    if scan_rate:
        layers["rt.client.scan_rec_per_s"] = (scan_rate, "1/s")
    if restart_s:
        layers["rt.server.daemon_restart_s"] = (median(restart_s), "s/call")
    result.notes["init_samples"] = len(init_s)
    result.notes["read_samples"] = len(read_s)
    result.notes["restart_samples"] = len(restart_s)
    return layers


def _rate_metrics(result: Result, stamps: list[float], start: float,
                  end: float, weights: list[int] | None = None) -> None:
    """The gated rate, and the plain whole-window mean beside it."""
    inside = [i for i, t in enumerate(stamps) if start <= t < end]
    total = (sum(weights[i] for i in inside) if weights is not None
             else len(inside))
    result.e2e["rate_per_s"] = (
        quiet_rate(stamps, start, end, weights), "1/s")
    result.layers["window.rate_mean_per_s"] = (total / (end - start), "1/s")


def _latency_metrics(result: Result, samples: list[tuple[float, float]],
                     start: float, end: float) -> None:
    """The gated latency from ``(completion stamp, latency)`` samples,
    and the plain whole-window p50 and p99 beside it."""
    samples = [(t, lat) for t, lat in samples if start <= t < end]
    result.notes["latency_samples"] = len(samples)
    if not result.check(bool(samples),
                        "no operation completed in the window"):
        return
    stamps = [t for t, _ in samples]
    latencies = [lat for _, lat in samples]
    ordered = sorted(latencies)
    result.e2e["latency_p50_ms"] = (
        1e3 * quiet_median(stamps, latencies, start, end), "ms")
    result.layers["window.latency_p50_ms"] = (
        1e3 * percentile(ordered, 0.50), "ms/call")
    result.layers["window.latency_p99_ms"] = (
        1e3 * percentile(ordered, 0.99), "ms/call")


# -- et1_solo, et1_fleet4, bulk_stream ---------------------------------------


async def run_write_workload(profile: WriteProfile, s: Settings) -> Result:
    result = Result(profile.name)
    _throwaway_start(s)
    async with contextlib.AsyncExitStack() as stack:
        # setup_s: spawn daemons, await banners, initialize() — several
        # times on fresh directories, median reported; the last cluster
        # carries the run.
        setup_s = []
        for rep in range(s.setup_reps):
            t0 = perf_counter()
            cluster = Cluster(os.path.join(s.data_root, f"run{rep}"),
                              span_dir=s.span_dir)
            stack.callback(cluster.stop)
            cluster.start()
            logs = [_new_log(cluster, profile, i, s.seed)
                    for i in range(profile.streams)]
            for log in logs:
                stack.push_async_callback(log.close)
                await log.initialize()
            setup_s.append(perf_counter() - t0)
            result.attempted += 1 + len(logs)
            if rep < s.setup_reps - 1:
                for log in logs:
                    await log.close()
                cluster.stop()
        result.e2e["setup_s"] = (median(setup_s), "s")

        streams = [Stream(i, log) for i, log in enumerate(logs)]
        phase = await _load_phase(cluster, streams, profile, s, result)
        for log in logs:
            await log.close()

        window_start, window_end = phase["window"]
        commits = sorted(c for stream in streams for c in stream.commits)
        _rate_metrics(result, [stamp for stamp, _ in commits],
                      window_start, window_end)
        _latency_metrics(result, commits, window_start, window_end)
        in_window = result.notes["latency_samples"]
        result.layers["rt.client.user_mb_per_s"] = (
            in_window * profile.commit_bytes / s.window_s / 1e6, "MB/s")
        result.layers.update(_cpu_layers(
            phase, ops=len(commits), forces=len(commits),
            records=sum(stream.writes for stream in streams),
            user_bytes=len(commits) * profile.commit_bytes))
        result.notes.update(
            op=profile.op, streams=profile.streams, ops=len(commits),
            forces=len(commits),
            load_ns=(phase["ns0"], phase["ns1"]),
            counters=phase["counters"])

        result.layers.update(await _restart_and_verify(
            cluster, profile,
            [(st.index, st.first_lsn, st.last_acked) for st in streams],
            s, result))
        cluster.stop()
        result.e2e["peak_rss_mb"] = (phase["rss_mb"], "MB")
        result.notes["rss_at_commits"] = (
            max(1, int(profile.rss_at_commits * s.scale))
            if phase["rss_sampled"] else "not reached")
    return result


# -- restart_read ------------------------------------------------------------


async def run_restart_read(s: Settings) -> Result:
    """Fixed preload, then the same layers used the other way round."""
    profile = _PRELOAD
    result = Result(profile.name)
    groups = max(1, int(PRELOAD_RECORDS * s.scale) // len(profile.shape))
    _throwaway_start(s)
    async with contextlib.AsyncExitStack() as stack:
        cluster = Cluster(os.path.join(s.data_root, "run"),
                          span_dir=s.span_dir)
        stack.callback(cluster.stop)
        cluster.start()
        log = _new_log(cluster, profile, 0, s.seed)
        stack.push_async_callback(log.close)
        await log.initialize()
        stream = Stream(0, log)
        preload = dataclasses.replace(s, warmup_s=0.0, window_s=0.0)
        phase = await _load_phase(cluster, [stream], profile, preload,
                                  result, commits=groups)
        await log.close()
        first, last = stream.first_lsn, stream.last_acked
        if not result.check(last - first + 1 == groups * len(profile.shape),
                            "preload did not ack every record"):
            return result
        cluster.sample_rss()
        result.layers["bench.preload_s"] = (phase["t1"] - phase["t0"], "s")
        result.layers["rt.client.user_mb_per_s"] = (
            groups * profile.commit_bytes
            / (phase["t1"] - phase["t0"]) / 1e6, "MB/s")
        result.layers.update(_cpu_layers(
            phase, ops=stream.writes, forces=len(stream.commits),
            records=stream.writes,
            user_bytes=groups * profile.commit_bytes))
        result.notes.update(
            op=profile.op, streams=1, ops=stream.writes,
            forces=len(stream.commits),
            load_ns=(phase["ns0"], phase["ns1"]),
            counters=phase["counters"])

        # setup_s here is what a user of an existing log waits for:
        # every daemon killed, the cluster restarted over the preloaded
        # log (process start + FileLogStore replay), and a fresh client
        # with the same id through initialize().
        setup_s = []
        reps = min(s.setup_reps, 3)
        for _ in range(reps):
            seconds = cluster.restart_all()
            log = _new_log(cluster, profile, 0, s.seed)
            stack.push_async_callback(log.close)
            t0 = perf_counter()
            await log.initialize()
            setup_s.append(seconds + perf_counter() - t0)
            result.attempted += 1 + SERVERS
            if len(setup_s) < reps:
                await log.close()
        result.e2e["setup_s"] = (median(setup_s), "s")
        result.check(log.end_of_log() >= last,
                     f"end_of_log {log.end_of_log()} below last acked {last}")

        # point reads over acked LSNs, then the forward scan; half the
        # window and half the warm-up each.
        rng = random.Random(s.seed)
        lsns = iter(lambda: rng.randint(first, last), None)
        await _point_reads(log, 0, s.seed, profile.record_bytes, lsns,
                           Result("warmup"),
                           deadline=perf_counter() + s.warmup_s / 2)
        read_start = perf_counter()
        read_end = read_start + s.window_s / 2
        _latency_metrics(result, await _point_reads(
            log, 0, s.seed, profile.record_bytes, lsns, result,
            deadline=read_end), read_start, read_end)

        await _scan(log, 0, s.seed, profile.record_bytes, first, last,
                    Result("warmup"),
                    deadline=perf_counter() + s.warmup_s / 2)
        scan_start = perf_counter()
        scan_end = scan_start + s.window_s / 2
        calls = await _scan(log, 0, s.seed, profile.record_bytes, first,
                            last, result, deadline=scan_end)
        _rate_metrics(result, [stamp for stamp, _ in calls], scan_start,
                      scan_end, weights=[n for _, n in calls])
        result.notes["scan_records"] = sum(n for _, n in calls)
        result.check(log.server_switches == 0,
                     f"{log.server_switches} server switches after restart")
        await log.close()

        result.layers.update(await _restart_and_verify(
            cluster, profile, [(0, first, last)], s, result))
        cluster.stop()
        result.e2e["peak_rss_mb"] = (cluster.peak_rss_mb, "MB")
    return result


# -- sim_target_load ---------------------------------------------------------


_SIM_COLD_START = (
    "from repro.harness.experiments import TargetLoadConfig, "
    "run_target_load; TargetLoadConfig(duration_s={duration}, seed={seed})")


def run_sim_target_load(s: Settings) -> Result:
    """The other stack: ``sim.kernel`` and the generator-driven
    ``client/`` + ``server/``; none of ``rt/`` runs."""
    result = Result("sim_target_load")
    # setup_s: interpreter start, imports and config build.  Imports
    # happen once per process, so each sample is a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", _SIM_COLD_START.format(
        duration=SIM_DURATION_S, seed=s.seed)]
    subprocess.run(command, env=env, check=True)  # page-cache warm-up
    setup_s = []
    for _ in range(s.setup_reps):
        t0 = perf_counter()
        subprocess.run(command, env=env, check=True)
        setup_s.append(perf_counter() - t0)
        result.attempted += 1
    result.e2e["setup_s"] = (median(setup_s), "s")

    from repro.harness.experiments import TargetLoadConfig, run_target_load

    config = TargetLoadConfig(duration_s=SIM_DURATION_S, seed=s.seed)

    def fingerprint(run) -> tuple:
        return tuple(
            repr(getattr(run, f.name)) for f in dataclasses.fields(run)
            if f.name not in ("config", "wall_seconds"))

    reference = run_target_load(config)  # warm-up, and the reference
    runs = []
    cpu0 = self_cpu_seconds()
    t0 = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - t0 < s.window_s:
        run = run_target_load(config)
        runs.append(run)
        if len(runs) == 2:
            # memory after a fixed number of calls: the collector's
            # sawtooth would otherwise make it depend on how many fit
            result.e2e["peak_rss_mb"] = (proc_peak_rss_mb("self"), "MB")
        result.attempted += run.completed_txns + run.failed_drivers
        result.failed += run.failed_drivers
        result.check(fingerprint(run) == fingerprint(reference),
                     "two runs of one config gave different results")
    wall = time.perf_counter() - t0
    cpu = self_cpu_seconds() - cpu0

    # one call is this workload's operation: the gated figures are the
    # quiet decile over the calls, as on the runtime workloads
    events = sum(run.kernel_events for run in runs)
    walls = sorted(run.wall_seconds for run in runs)
    rates = sorted(run.kernel_events / run.wall_seconds for run in runs)
    result.e2e["rate_per_s"] = (
        percentile(rates, 1.0 - QUIET_FRACTION), "1/s")
    result.e2e["latency_p50_ms"] = (
        1e3 * percentile(walls, QUIET_FRACTION), "ms")
    result.layers.update({
        "window.rate_mean_per_s": (events / wall, "1/s"),
        "window.latency_p50_ms": (1e3 * median(walls), "ms/call"),
        "window.latency_p99_ms": (1e3 * walls[-1], "ms/call"),
        "proc.client_cpu_us_per_op": (1e6 * cpu / events, "us/op"),
        "proc.cores_busy": (cpu / wall, "cores"),
        "sim.kernel.events_per_txn": (
            reference.kernel_events / reference.completed_txns, "count"),
        "sim.kernel.wall_us_per_event": (
            1e6 * median(run.wall_seconds / run.kernel_events
                         for run in runs), "us/op"),
    })
    result.notes.update(
        op="kernel event", latency_samples=len(runs),
        sim_duration_s=SIM_DURATION_S,
        txns_per_run=reference.completed_txns,
        events_per_run=reference.kernel_events)
    return result


def run_workload(name: str, s: Settings) -> Result:
    os.makedirs(s.data_root, exist_ok=True)
    pin_generator()
    try:
        if name == "sim_target_load":
            return run_sim_target_load(s)
        if name == "restart_read":
            return asyncio.run(run_restart_read(s))
        return asyncio.run(run_write_workload(WRITE_PROFILES[name], s))
    finally:
        # Hundreds of MB of log files: gone before the next pass starts,
        # so their write-back does not land in its fsyncs.
        if not s.keep:
            shutil.rmtree(s.data_root, ignore_errors=True)
