"""The sweep engine behind ``repro crashsweep``.

The paper's durability promise (§3.1, §5.4) is *per crash point*, so
every phase of the sweep has the same shape: **enumerate** the points
a scripted workload reaches under a recording injector, **select** the
plans worth arming, **run** the workload once per plan with it armed,
then **heal and verify**.  Here that shape is written once:

* a :class:`Phase` is data — ``enumerate()``, ``select(trace, quick)``
  and ``run_case(index, plan)`` — where a *plan* is the tuple of
  :class:`~repro.rt.faultspec.FaultSpec` armed together in one case;
* :func:`run_phase` is the one loop: site histogram, hit / not-reached
  bookkeeping, ``FAIL`` reporting, and single-plan replay
  (``--point`` / ``--plan``);
* :func:`run_workload` is the one client workload every runtime phase
  drives, with clients from the one factory :func:`sweep_client`:
  ET1 transactions, a bulk transaction, a truncation and a fenced
  handoff, each step journaled into the case's
  :class:`~repro.harness.oracle.History`;
* :func:`verify_restart` is the one restart-and-check the daemon,
  network, partition, handoff and fuzz phases share: a fresh client
  restarts the stream, :func:`~repro.harness.oracle.observe` reads it
  back into the case's :class:`~repro.harness.oracle.History`, and
  :func:`~repro.harness.oracle.check` names every broken promise.

The client phase runs the same ``observe`` in recovery processes of
its own and checks the histories they journaled; the storage phase
checks a store directly, with the oracle's ``acked-durable`` and
``no-fabrication`` rules plus the store-only ones.
"""

from __future__ import annotations

import asyncio
import subprocess
from collections.abc import Callable
from dataclasses import dataclass, field

from ..core.config import ReplicationConfig
from ..core.errors import LogError
from ..core.retry import RetryPolicy
from ..rt.client import AsyncReplicatedLog
from ..rt.cluster import LoopbackCluster, fetch_stats
from ..rt.faultfs import FAULT_EXIT_CODE
from ..rt.faultspec import FaultSpec, plan_text
from .oracle import History, check, observe

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
                        armed: int) -> bool:
    """Whether the ``armed`` storage faults of one daemon all fired.

    A daemon a crash action fired in exits with ``FAULT_EXIT_CODE``;
    one still serving counts its injected faults in its Stats
    ``injected_faults``.  A daemon whose Stats cannot be read is given
    :data:`EXIT_GRACE_S` to show the exit.
    """
    entry = cluster.servers[server_id]
    if entry.alive:
        try:
            stats = asyncio.run(fetch_stats(*entry.address))
        except (OSError, asyncio.TimeoutError):
            pass
        else:
            return stats["injected_faults"] >= armed
        try:
            return cluster.wait(server_id,
                                timeout=EXIT_GRACE_S) == FAULT_EXIT_CODE
        except subprocess.TimeoutExpired:
            return False
    return entry.process is not None \
        and entry.process.returncode == FAULT_EXIT_CODE


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


async def verify_restart(addresses: dict, client_id: str,
                         config: ReplicationConfig,
                         history: History) -> list[str]:
    """§5.4 restart directly against healed daemons, observed into
    ``history``; the broken promises of the whole history."""
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    log = sweep_client(addresses, client_id, config)
    try:
        await log.initialize()
        history.epoch(log)
        await observe(log, history)
    except LogError as exc:
        return [f"live: post-heal recovery failed: {exc!r}"]
    finally:
        await log.close()
    return check(history)
