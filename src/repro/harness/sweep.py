"""The sweep engine behind ``repro crashsweep``.

The paper's durability promise (§3.1, §5.4) is *per failure point*, so
every phase of the sweep has the same shape: **record** the points a
scripted workload reaches, **select** the plans worth arming, **run**
the workload once per plan with it armed, then **heal and verify**.
Here that shape is written once:

* a :class:`Phase` is data — ``enumerate()``, ``select(trace, quick)``
  and ``run_case(index, plan)`` — where a *plan* is the tuple of
  :class:`~repro.rt.faultspec.FaultSpec` armed together in one case,
  and :func:`run_phase` is the one loop over it;
* :func:`run_workload` is the one client workload (clients from
  :func:`sweep_client`), journaled into the case's
  :class:`~repro.harness.oracle.History`;
* :func:`run_case` is the one runtime case runner: it arms storage
  specs as a daemon's ``--fault-plan``, net specs on a
  :class:`~repro.rt.chaosproxy.ProxyFleet`, client ``raise`` specs
  in-process and client ``exit``/``sigkill`` specs in a
  :mod:`~repro.harness.clientworker` process (the death is the
  fault), runs the workload, revives the cluster and ends in
  :func:`verify_restart` → :func:`~repro.harness.oracle.acked_on_n`
  and :func:`~repro.harness.oracle.check`;
* :func:`record` is the one recording run: :func:`run_case` on a fresh
  cluster with every family recorded on every target, whose trace of
  *targeted* points (``s2@log.fsync:3``, ``s1@net.ack.s2c:0``,
  ``client.force.ack:1``) every runtime phase selects from.

The runtime phases differ only in what they pass in: the cluster, the
config, the number of restarts and any liveness checks.  The storage
phase checks a store directly, in-process.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..core.config import ReplicationConfig
from ..core.errors import LogError
from ..core.retry import RetryPolicy
from ..rt import clientfault
from ..rt.chaosproxy import ProxyFleet
from ..net.messages import (
    MAX_RECORDS_ANY,
    IntervalListCall,
    ReadLogForwardCall,
)
from ..rt.client import AsyncReplicatedLog, ServerConnection
from ..rt.clientfault import ClientCrash, ClientFaultInjector
from ..rt.cluster import LoopbackCluster, fetch_stats
from ..rt.faultfs import FAULT_EXIT_CODE
from ..rt.faultspec import (
    FaultSpec,
    by_target,
    plan_text,
    read_trace,
    trace_points,
)
from .oracle import History, acked_on_n, check, observe

#: the faults armed together in one case.
Plan = tuple[FaultSpec, ...]


@dataclass
class CrashCase:
    """One armed run and its verdict."""

    point: str           # "site:index", or a label for a composite case
    action: str
    ok: bool = True
    hit: bool = True     # did the armed point fire?
    errors: list[str] = field(default_factory=list)

    @classmethod
    def of(cls, plan: Plan) -> "CrashCase":
        """A fresh verdict labelled by its plan: a lone spec's point
        and action, else the plan text and ``combined``."""
        if len(plan) == 1:
            return cls(plan[0].point, plan[0].action)
        return cls(plan_text(plan), "combined")

    @property
    def spec(self) -> str:
        return f"{self.point}:{self.action}"

    def as_dict(self) -> dict:
        return {"point": self.point, "action": self.action, "ok": self.ok,
                "hit": self.hit, "errors": list(self.errors)}


@dataclass(frozen=True)
class Phase:
    """One family of cases, as data for :func:`run_phase`."""

    name: str
    #: ``(trace, quick) → plans``: the cases worth running, in order.
    select: Callable[[tuple[FaultSpec, ...], bool], list[Plan]]
    #: ``(index, plan) → verdict``: arm, run, heal, verify.
    run_case: Callable[[object, Plan], CrashCase]
    #: one clean recorded run → the bare points it reached; ``None``
    #: for curated phases, which select from no trace.
    enumerate: Callable[[], tuple[FaultSpec, ...]] | None = None
    #: command prefix that replays a failed case from its plan text.
    replay: str = ""


@dataclass
class PhaseResult:
    """What one phase enumerated and found."""

    points: int = 0
    sites: dict[str, int] = field(default_factory=dict)
    cases: list[CrashCase] = field(default_factory=list)
    #: cases that armed more than one fault.
    combined: int = 0


def by_site(trace) -> dict[str, list[FaultSpec]]:
    """Group a trace's points per site, each in invocation order."""
    sites: dict[str, list[FaultSpec]] = {}
    for point in trace:
        sites.setdefault(point.site, []).append(point)
    return sites


def site_counts(trace) -> dict[str, int]:
    """The site histogram: how many points of each site were reached."""
    return {site: len(points) for site, points in by_site(trace).items()}


def first_and_last(trace) -> list[FaultSpec]:
    """The first and last point of every site, sites in name order."""
    picked = []
    for _, points in sorted(by_site(trace).items()):
        picked.append(points[0])
        if len(points) > 1:
            picked.append(points[-1])
    return picked


#: how long a daemon whose armed point fired may take to be reapable
#: after the workload returned (it is exiting; observed well under
#: 100 ms).  What a case whose point was *not* reached costs.
EXIT_GRACE_S = 3.0


def daemon_faults_fired(cluster: LoopbackCluster, server_id: str,
                        specs: Plan) -> bool:
    """Whether the storage faults ``specs`` armed on one daemon all
    fired: each one's point is in the daemon's ``--fault-trace``, which
    the injector writes before it acts.

    A daemon that polls alive but cannot answer Stats is exiting (a
    crash on the workload's last call closes the client's sockets a
    moment before the process can be reaped): it is given
    :data:`EXIT_GRACE_S` to show the exit status.
    """
    entry = cluster.servers[server_id]
    if entry.alive:
        try:
            asyncio.run(fetch_stats(*entry.address))
        except (OSError, asyncio.TimeoutError):
            try:
                cluster.wait(server_id, timeout=EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
    reached = {point.point for point in
               read_trace(Path(cluster.root_dir) / f"{server_id}.trace")}
    return all(spec.point in reached for spec in specs)


def run_phase(phase: Phase, *, quick: bool, say,
              replay: Plan | None = None) -> PhaseResult:
    """Run ``phase``: every selected plan, or just ``replay``."""
    result = PhaseResult()
    if replay is not None:
        say(f"replaying {phase.name} case {plan_text(replay)}")
        plans = [replay]
    else:
        trace = phase.enumerate() if phase.enumerate is not None else ()
        result.points = len(trace)
        result.sites = site_counts(trace)
        plans = phase.select(trace, quick)
        say(f"{phase.name} phase: {result.points} points across "
            f"{len(result.sites)} sites enumerated, {len(plans)} cases")
    for n, plan in enumerate(plans):
        case = phase.run_case("replay" if replay is not None else n, plan)
        result.cases.append(case)
        result.combined += len(plan) > 1
        if not case.hit:
            say(f"{phase.name} {case.spec}: armed point not reached")
        elif not case.ok:
            hint = (f" — replay with: {phase.replay} '{plan_text(plan)}'"
                    if phase.replay else "")
            say(f"FAIL {phase.name} {case.spec}: "
                f"{'; '.join(case.errors)}{hint}")
    return result


# -- the one workload ----------------------------------------------------------

#: the replication shape of the client worker and the network-side
#: phases.  δ is one more than an ET1 transaction's records, so only
#: the commit's force and the bulk transaction's batches reach the wire.
SWEEP_CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)
#: the daemon phase's: one daemon holds the only copy, so its own
#: recovery is the only copy under test.
SINGLE_CONFIG = ReplicationConfig(total_servers=1, copies=1, delta=8)
#: ET1 transactions the first generation commits.
SWEEP_TXNS = 3

#: force-ack timeout and keep-alive budget of every sweep client.
CLIENT_TIMEOUT_S = 1.0
KEEPALIVE_INTERVAL_S = 0.25
KEEPALIVE_MISSES = 2

#: bytes of each bulk-transaction record.
_BULK_RECORD_BYTES = 1024


def sweep_client(addresses: dict, client_id: str,
                 config: ReplicationConfig) -> AsyncReplicatedLog:
    """A client with the sweeps' timeout, keep-alive and retry settings."""
    return AsyncReplicatedLog(
        client_id, addresses, config, timeout=CLIENT_TIMEOUT_S,
        keepalive_interval=KEEPALIVE_INTERVAL_S,
        keepalive_misses=KEEPALIVE_MISSES,
        retry_policy=RetryPolicy(cap_delay_s=0.25, max_attempts=5))


@dataclass
class Run:
    """One workload run: its history, and how the run went."""

    history: History = field(default_factory=History)
    completed: bool = False
    aborted: str = ""
    #: the most §5.4 write-set switches any of its clients made.
    switches: int = 0
    max_force_s: float = 0.0

    async def force(self, log) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        await self.history.force(log)
        self.max_force_s = max(self.max_force_s, loop.time() - t0)

    async def commit_et1(self, log, txn: int) -> None:
        """ET1 transaction ``txn``: its records, the commit forced."""
        # Imported on use: the shape is the simulated workload's own,
        # and importing the sweep loads no part of the analytic model.
        from ..workload.et1 import et1_log_pattern

        for data, _kind, _forced in et1_log_pattern(txn_seq=txn):
            await self.history.write(log, data)
        await self.force(log)


async def run_workload(addresses: dict, client_id: str,
                       config: ReplicationConfig, run: Run,
                       txns: int = SWEEP_TXNS) -> None:
    """The one client workload of the runtime sweeps, into ``run``.

    A generation initializes and commits ``txns`` ET1 transactions
    (§4.1: seven 100 B records, the last one forced), then one bulk
    transaction of 1 KiB records whose batches stream as WriteLogs at
    the client's one batch size, a packet.  It truncates (§5.3) twice
    at one mark: the first compacts every server's log, the second
    finds nothing left below the mark and writes the mark itself.
    Then a second instance seizes the stream with ``takeover()`` and
    commits one more ET1 transaction.  Raises whatever stopped it.
    """
    # Injected faults abort in-flight futures by design; unretrieved
    # exceptions are expected noise, not harness bugs.
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    history = run.history
    log = sweep_client(addresses, client_id, config)
    taker: AsyncReplicatedLog | None = None
    try:
        await log.initialize()
        history.epoch(log)
        for txn in range(txns):
            await run.commit_et1(log, txn)
        # As many records as fit below δ: every second write fills a
        # packet and streams the batch.
        for i in range(config.delta - 1):
            await history.write(
                log, f"bulk:{i}:".encode().ljust(_BULK_RECORD_BYTES, b"b"))
        await run.force(log)
        low = log.end_of_log() - config.delta
        for _ in range(2):
            await history.truncate(log, low)
        # A kill inside a client.handoff.* seam leaves a partly
        # installed fence, which the next restart's fresh epoch rides
        # over.
        taker = sweep_client(addresses, client_id, config)
        await taker.takeover()
        history.epoch(taker)
        await run.commit_et1(taker, txns)
        run.completed = True
    finally:
        run.switches = max(run.switches, log.server_switches)
        if taker is not None:
            run.switches = max(run.switches, taker.server_switches)
            await taker.close()
        await log.close()


# -- the one restart-and-check -------------------------------------------------


async def holdings(addresses: dict, client_id: str
                   ) -> dict[str, dict[int, str | bool]]:
    """What each daemon alone holds of ``client_id``'s stream, asked
    over the wire (a live daemon's directory is never opened): its
    interval list, and ReadLog calls from its lowest stored LSN to its
    highest.  LSN → hex payload of the highest-epoch copy, or ``False``
    for a not-present record; a daemon that cannot answer holds
    nothing."""
    held: dict[str, dict[int, str | bool]] = {}
    for sid, (host, port) in sorted(addresses.items()):
        records = held[sid] = {}
        conn = ServerConnection(sid, host, port, timeout=CLIENT_TIMEOUT_S)
        try:
            await conn.connect()
            intervals = (await conn.call(
                IntervalListCall(client_id))).intervals
            lsn = min((iv.lo for iv in intervals), default=1)
            high = max((iv.hi for iv in intervals), default=0)
            while lsn <= high:
                reply = await conn.call(
                    ReadLogForwardCall(client_id, lsn, MAX_RECORDS_ANY))
                if not reply.records:
                    break
                for record in reply.records:
                    records[record.lsn] = (record.present
                                           and record.data.hex())
                lsn = reply.records[-1].lsn + 1
        except LogError:
            pass
        finally:
            await conn.close()
    return held


async def verify_restart(addresses: dict, client_id: str,
                         config: ReplicationConfig, history: History,
                         restarts: int = 1) -> list[str]:
    """The broken promises of ``history`` against healed daemons.

    First ``acked-on-N`` over what each daemon holds — before any
    restart, whose copies of the last δ records would hide a missing
    one — then ``restarts`` §5.4 restarts, each by a fresh client and
    observed into ``history``, and :func:`check` of the whole history
    (a second restart must reproduce the first: ``idempotent``)."""
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    errors = acked_on_n(history, await holdings(addresses, client_id),
                        config.copies)
    for _ in range(restarts):
        log = sweep_client(addresses, client_id, config)
        try:
            await log.initialize()
            history.epoch(log)
            await observe(log, history)
        except LogError as exc:
            return errors + [f"live: post-heal recovery failed: {exc!r}"]
        finally:
            await log.close()
    return errors + check(history)


# -- the one case runner -------------------------------------------------------

#: the one stream of every case on a fresh cluster, and of every
#: :mod:`~repro.harness.clientworker` process.
CLIENT_ID = "sweep"

#: how long an in-process workload, or a worker process running it,
#: may take before its case fails as hung.
WORKLOAD_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 120.0


async def _run_worker(addresses: dict, journal: Path, plan: str,
                      trace: Path | None) -> int:
    """Run the workload in one clientworker OS process with ``plan``
    armed; its exit status.  Raises :class:`subprocess.TimeoutExpired`
    (after killing it) for a worker past :data:`WORKER_TIMEOUT_S`."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env[clientfault.PLAN_ENV] = plan
    env.pop(clientfault.TRACE_ENV, None)
    if trace is not None:
        env[clientfault.TRACE_ENV] = str(trace)
    servers = ",".join(f"{sid}={host}:{port}"
                       for sid, (host, port) in sorted(addresses.items()))
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.harness.clientworker",
        "--servers", servers, "--journal", str(journal), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return await asyncio.wait_for(proc.wait(), WORKER_TIMEOUT_S)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.wait()
        raise subprocess.TimeoutExpired("clientworker",
                                        WORKER_TIMEOUT_S) from None


def _start_armed(cluster: LoopbackCluster,
                 storage: dict[str, Plan], *, traced: bool) -> None:
    """Start every daemon not running; restart each one that gets
    ``storage`` faults armed (``--fault-plan``) or, when ``traced``,
    every daemon, each armed or traced one under a fresh
    ``--fault-trace`` in the cluster's root."""
    root = Path(cluster.root_dir)
    args: dict[str, list[str]] = {}
    for sid in cluster.servers:
        if sid in storage or traced:
            (root / f"{sid}.trace").unlink(missing_ok=True)
            args[sid] = ["--fault-trace", str(root / f"{sid}.trace")]
        if sid in storage:
            args[sid] += ["--fault-plan", plan_text(storage[sid])]
    for sid in args:
        cluster.kill(sid)
    try:
        cluster.start(args)
    except RuntimeError:
        # An armed point fired during startup recovery (e.g.
        # dir.create-sync:0), before the banner: legal, and nothing
        # can have been acked.  Any other death is the harness's.
        if any(sid not in storage
               or entry.process.returncode != FAULT_EXIT_CODE
               for sid, entry in cluster.servers.items()
               if not entry.alive):
            raise


def _casualties(cluster: LoopbackCluster,
                storage: dict[str, Plan]) -> list[str]:
    """A failure for each dead daemon that had no storage fault armed,
    or that exited with another status than the injected crash's."""
    errors = []
    for sid, entry in cluster.servers.items():
        if entry.alive:
            continue
        code = entry.process.returncode
        if sid not in storage:
            errors.append(f"live: daemon {sid} died with no storage "
                          f"fault armed on it (exit {code})")
        elif code != FAULT_EXIT_CODE:
            errors.append(f"live: daemon {sid} exited {code}, expected "
                          f"{FAULT_EXIT_CODE} (injected crash)")
    return errors


def run_case(cluster: LoopbackCluster, config: ReplicationConfig,
             plan: Plan, *, client_id: str, restarts: int = 1,
             live: Callable[[Run], list[str]] | None = None,
             trace: list[FaultSpec] | None = None) -> CrashCase:
    """Arm ``plan`` on ``cluster``, run the workload, revive, verify.

    The case is hit only if every spec fired, as read before anything
    is revived: each frame fault on its proxy, the client faults by the
    injector's crash count or the worker's exit status, each daemon's
    storage faults by :func:`daemon_faults_fired`.  ``live(run)`` adds
    the caller's liveness checks; with nothing armed the workload must
    complete.  With ``trace`` given, every family is recorded on every
    target and the targeted points reached are appended to it.
    """
    case = CrashCase.of(plan)
    storage = by_target((spec for spec in plan
                         if spec.family == "storage"), "s1")
    frames = tuple(spec for spec in plan if spec.family == "net")
    kills = tuple(spec for spec in plan if spec.family == "client")
    # The exit status of a worker each death spec kills.
    deaths = {-signal.SIGKILL if spec.action == "sigkill"
              else FAULT_EXIT_CODE for spec in kills if spec.action != "raise"}
    if deaths and client_id != CLIENT_ID:
        raise ValueError(f"a client death runs in the worker process, "
                         f"whose stream is {CLIENT_ID!r}, not {client_id!r}")
    root = Path(cluster.root_dir)
    _start_armed(cluster, storage, traced=trace is not None)
    run = Run()

    async def drive() -> bool:
        """The workload through the armed fleet; whether every frame
        and client fault fired."""
        fleet = ProxyFleet(cluster.addresses(), plans=frames,
                           record=trace is not None)
        await fleet.start()
        injector = None if deaths else ClientFaultInjector(kills)
        clientfault.install(injector)
        try:
            if injector is None:
                journal = root / f"{client_id}.journal"
                client_trace = root / "client.trace"
                try:
                    code = await _run_worker(
                        fleet.addresses(), journal, plan_text(kills),
                        client_trace if trace is not None else None)
                finally:
                    run.history = History.load(journal)
                run.completed = code == 0
                if code not in deaths | {0}:
                    case.errors.append(
                        f"live: run worker exited {code}, expected "
                        f"{' or '.join(map(str, sorted(deaths)))} "
                        f"(injected kill)")
                client_fired = len(kills) == 1 and code in deaths
                client_points = read_trace(client_trace)
            else:
                try:
                    await asyncio.wait_for(
                        run_workload(fleet.addresses(), client_id, config,
                                     run), WORKLOAD_TIMEOUT_S)
                except (LogError, OSError, asyncio.TimeoutError,
                        ClientCrash) as exc:
                    run.aborted = repr(exc)
                client_fired = injector.crashes == len(kills)
                client_points = trace_points(injector.trace)
            if trace is not None:
                trace.extend(client_points)
                for sid, proxy in fleet.proxies.items():
                    # Keep-alive traffic is timing-dependent: not a
                    # replayable point.
                    trace.extend(replace(point, target=sid)
                                 for point in trace_points(proxy.trace)
                                 if point.kind not in ("ping", "pong"))
            return set(frames) <= set(fleet.fired) and client_fired
        finally:
            clientfault.install(None)
            await fleet.close()

    fired = not frames and not kills
    if all(entry.alive for entry in cluster.servers.values()):
        try:
            fired = asyncio.run(drive())
        except subprocess.TimeoutExpired as exc:
            case.errors.append(f"live: client worker hung: {exc}")
    case.hit = fired and all(daemon_faults_fired(cluster, sid, specs)
                             for sid, specs in storage.items())
    if trace is not None:
        for sid in cluster.servers:
            trace.extend(replace(point, target=sid)
                         for point in read_trace(root / f"{sid}.trace"))
    case.errors.extend(_casualties(cluster, storage))
    if live is not None:
        case.errors.extend(live(run))
    if not plan and not run.completed:
        case.errors.append(f"live: the workload did not complete with "
                           f"nothing armed ({run.aborted or 'incomplete'})")
    cluster.revive(list(storage))
    case.errors.extend(asyncio.run(verify_restart(
        cluster.addresses(), client_id, config, run.history, restarts)))
    case.ok = not case.errors
    return case


def run_fresh(root: Path, config: ReplicationConfig, plan: Plan,
              **options) -> CrashCase:
    """:func:`run_case` on a fresh cluster of ``config``'s size in
    ``root``, on the stream :data:`CLIENT_ID`; the cluster is stopped
    after."""
    cluster = LoopbackCluster(str(root), num_servers=config.total_servers)
    try:
        return run_case(cluster, config, plan, client_id=CLIENT_ID,
                        **options)
    finally:
        cluster.stop()


def record(root: Path, config: ReplicationConfig,
           plan: Plan = ()) -> tuple[CrashCase, tuple[FaultSpec, ...]]:
    """The one recording run: ``plan`` (nothing, by default) armed on a
    fresh cluster with every family recorded on every target; its
    verdict and the targeted points it reached.  A recording with
    nothing armed that fails is the harness's failure, and raises."""
    trace: list[FaultSpec] = []
    case = run_fresh(root, config, plan, trace=trace)
    if not plan and not case.ok:
        raise RuntimeError(f"the recording run in {root} failed: "
                           f"{'; '.join(case.errors)}")
    return case, tuple(trace)


def reached(trace, family: str, target: str = "") -> tuple[FaultSpec, ...]:
    """The bare points of ``family`` a recording reached on ``target``
    (``""`` for the client), untargeted, in order."""
    return tuple(replace(point, target="") for point in trace
                 if point.family == family and point.target == target)
