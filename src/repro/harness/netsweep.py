"""Network phase of ``repro crashsweep``: frame faults + multi-fault fuzz.

The storage and client phases prove durability across crashes of the
*endpoints*; this phase proves it across misbehavior of the *network*
between them — the paper's actual failure model for server switching
(§5.4) and N-of-M write-set availability.  Three real ``repro serve``
daemons run behind per-server :class:`~repro.rt.chaosproxy.ChaosProxy`
instances (a :class:`~repro.rt.chaosproxy.ProxyFleet`), and a scripted
client workload runs through them:

1. **Enumerate** — one clean traced run; every frame crossing the
   target server's proxy is a point ``net.<kind>.<dir>:<index>``
   (keep-alive ping/pong excluded: their timing is not deterministic).
2. **Sweep** — re-run the workload once per (point, action) with that
   single network :class:`~repro.rt.faultspec.FaultSpec` armed, plus
   curated ``partition-after`` cases where the §5.4 switch must
   complete off a server that is *alive and reachable in one
   direction* within :data:`SWITCH_BUDGET_S`.
3. **Verify** — heal (drop the proxies), confirm no daemon died, then
   re-run the §5.4 restart with the same client id *directly* against
   the daemons and check the standing invariants: epoch monotone, every
   acked record readable with its exact payload (above the truncation
   floor), nothing fabricated, and post-heal liveness (a fresh
   transaction acks and reads back).

The **fuzz phase** (``repro crashsweep --fuzz N --seed S``) composes
2–4 faults per case drawn across all three injector families — network
frame plans, storage fault plans armed on a daemon via ``--fault-plan``
(power-loss/EIO only: silent storage corruption voids acked-durability
by design and belongs to the storage phase), and in-process client
protocol crashes (:mod:`repro.rt.clientfault`, action ``raise``).  A
case's plan text round-trips through
:func:`~repro.rt.faultspec.parse_plan`, so any failure is replayable
with ``repro crashsweep --plan SPEC``.  The workload may legally abort
mid-case (e.g. two faulted servers leave no write quorum); the
invariants are checked regardless, after the fleet is revived.

Each of the four is a :class:`~repro.harness.sweep.Phase`
(:func:`net_phases`) run by the one loop in :mod:`repro.harness.sweep`,
and all of them verify with its
:func:`~repro.harness.sweep.verify_restart`.
"""

from __future__ import annotations

import asyncio
import functools
import random

from ..core.config import ReplicationConfig
from ..core.errors import LogError, LogFenced
from ..core.retry import RetryPolicy
from ..net.codec import RECORD_BEARING_KINDS
from ..rt import clientfault
from ..rt.chaosproxy import ProxyFleet
from ..rt.client import AsyncReplicatedLog
from ..rt.clientfault import ClientCrash, ClientFaultInjector
from ..rt.cluster import LoopbackCluster
from ..rt.faultspec import (
    FaultSpec,
    by_target,
    parse_plan,
    plan_text,
    trace_points,
)
from ..rt.filestore import FileLogStore
from .sweep import (
    ClientJournal,
    CrashCase,
    Phase,
    Plan,
    by_site,
    site_counts,
    verify_restart,
)

#: the case workload's replication shape (M=3, N=2, δ=8 — δ larger
#: than a transaction so only explicit forces hit the wire, keeping
#: frame enumeration deterministic).
_NET_CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)
_TIMEOUT = 1.0
_KA_INTERVAL = 0.25
_KA_MISSES = 2

#: §5.4 detection + switch budget for a *partitioned* (not killed)
#: server: the slower detector — the force-ack timeout (a ``c2s``
#: partition starves acks) vs the keep-alive miss budget (an ``s2c``
#: partition starves all inbound bytes) — plus generous single-core CI
#: slack for the switch's NewInterval + window re-feed round.
SWITCH_BUDGET_S = max(_TIMEOUT, _KA_INTERVAL * (_KA_MISSES + 1)) + 4.0

#: curated §5.4-under-partition cases: the old server stays alive and
#: reachable in one direction; the switch must complete within budget
#: with zero acked-record loss.  ``c2s`` partitions surface as force
#: timeouts, ``s2c`` partitions as keep-alive quarantines.
PARTITION_CASES = [(spec,) for spec in parse_plan(
    "net.writelog.c2s:1:partition-after,net.forcelog.c2s:1:partition-after,"
    "net.newhighlsn.s2c:0:partition-after,net.ack.s2c:2:partition-after")]

#: storage faults the fuzzer draws (crash/wedge only — no silent
#: corruption, which voids acked-durability and is the storage
#: phase's own subject).  ``log.write.fence`` is the durable fence
#: append of the workload's handoff tail.
_FUZZ_STORAGE_SITES = ("log.write.record", "log.fsync", "log.group-fsync",
                       "log.write.fence")
_FUZZ_STORAGE_ACTIONS = ("power-loss", "eio")

#: client protocol sites the fuzzer crashes in-process (action
#: ``raise``; exit/sigkill would kill the harness itself).  The
#: ``client.handoff.*`` sites are the takeover seams: after the epoch
#: bump but before the fence, and after a partial fence install.
_FUZZ_CLIENT_SITES = ("client.flush.sent", "client.force.ack",
                      "client.switch.begin", "client.recovery.copylog",
                      "client.init.lists", "client.handoff.epoch",
                      "client.handoff.fence.ack")

#: payload prefix of every record the *fenced* old writer attempts
#: after a handoff: the durable-file check greps for it, so it must
#: never appear in any daemon's log.
_STALE_PREFIX = b"stale."


# -- the scripted workload ---------------------------------------------------


def _make_client(addresses: dict, client_id: str) -> AsyncReplicatedLog:
    return AsyncReplicatedLog(
        client_id, addresses, _NET_CONFIG,
        timeout=_TIMEOUT, batch_bytes=256,
        keepalive_interval=_KA_INTERVAL, keepalive_misses=_KA_MISSES,
        retry_policy=RetryPolicy(cap_delay_s=0.25, max_attempts=5),
    )


async def _run_workload(addresses: dict, client_id: str,
                        journal: ClientJournal, *, seed: int = 0) -> None:
    """Three 4-record transactions with explicit forces and one §5.3
    truncation, then a fenced ownership handoff (a second instance
    seizes the stream and commits one more transaction — putting the
    fencelog frames and the ``client.handoff.*`` sites on the traced
    protocol surface the sweep and fuzzer enumerate)."""
    # Injected faults abort in-flight futures by design; unretrieved
    # exceptions are expected noise, not harness bugs.
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    log = _make_client(addresses, client_id)
    taker: AsyncReplicatedLog | None = None
    try:
        await log.initialize()
        journal.epoch = log.current_epoch
        for txn in range(3):
            for i in range(4):
                await journal.write(log, (
                    f"{client_id}.{txn}.{i}.".encode()
                    + bytes((seed + 16 * txn + 4 * i + j) % 256
                            for j in range(64))))
            await journal.force(log)
            if txn == 1:
                low = log.end_of_log() - _NET_CONFIG.delta
                if low > 1:
                    await journal.truncate(log, low)
        taker = _make_client(addresses, client_id)
        await taker.takeover()
        journal.epoch = taker.current_epoch
        for i in range(4):
            await journal.write(taker, (
                f"{client_id}.t.{i}.".encode()
                + bytes((seed + 128 + 4 * i + j) % 256 for j in range(64))))
        await journal.force(taker)
        journal.completed = True
    finally:
        journal.switches = max(journal.switches, log.server_switches)
        if taker is not None:
            journal.switches = max(journal.switches,
                                   taker.server_switches)
            await taker.close()
        await log.close()


async def _run_armed(fleet: ProxyFleet, client_id: str,
                     journal: ClientJournal) -> None:
    """The workload through an armed fleet; a legal abort is journaled."""
    try:
        await asyncio.wait_for(
            _run_workload(fleet.addresses(), client_id, journal),
            timeout=60.0)
    except (LogError, OSError, asyncio.TimeoutError) as exc:
        journal.aborted = repr(exc)


# -- enumeration and case selection ------------------------------------------


def enumerate_net_points(cluster: LoopbackCluster, *,
                         target: str = "s1") -> tuple[FaultSpec, ...]:
    """Frame points seen by ``target``'s proxy during one clean run."""

    async def run() -> list[str]:
        fleet = ProxyFleet(cluster.addresses(), record_server=target)
        await fleet.start()
        try:
            journal = ClientJournal()
            await _run_workload(fleet.addresses(), "net-e", journal)
            if not journal.completed:
                raise RuntimeError(
                    "net enumeration workload did not complete")
            return fleet.proxies[target].trace
        finally:
            await fleet.close()

    # Keep-alive traffic is timing-dependent: not a replayable point.
    return tuple(point for point in trace_points(asyncio.run(run()))
                 if point.kind not in ("ping", "pong"))


def select_net_cases(trace, quick: bool) -> list[Plan]:
    """The single-fault plans to sweep, from an enumerated trace."""
    sites = by_site(trace)
    cases: list[Plan] = []

    def add(point: FaultSpec, *actions: str) -> None:
        cases.extend((point.arm(action),) for action in actions)

    if quick:
        wanted = ("net.intervallistcall.c2s", "net.writelog.c2s",
                  "net.forcelog.c2s", "net.newhighlsn.s2c")
        for site in wanted:
            if site in sites:
                add(sites[site][0], "drop", "kill-connection-after")
        if "net.forcelog.c2s" in sites:
            add(sites["net.forcelog.c2s"][0], "corrupt-payload")
        if "net.newhighlsn.s2c" in sites:
            add(sites["net.newhighlsn.s2c"][0], "corrupt-header")
        return cases
    for _, points in sorted(sites.items()):
        first, last = points[0], points[-1]
        add(first, "drop", "kill-connection-after", "duplicate",
            "corrupt-header")
        if last != first:
            add(last, "drop")
        if first.kind in RECORD_BEARING_KINDS:
            add(first, "corrupt-payload", "truncate-mid-frame")
    for site in ("net.forcelog.c2s", "net.newhighlsn.s2c"):
        if site in sites:
            add(sites[site][0], "delay")
    return cases


# -- single-fault net cases --------------------------------------------------


def run_net_case(cluster: LoopbackCluster, index, plan: Plan) -> CrashCase:
    """One armed frame fault against the shared daemon cluster.

    A ``partition-after`` fault additionally must drive a §5.4 switch
    that completes, within budget, off a server that stays alive.
    """
    (spec,) = plan
    case = CrashCase.of(plan)
    target = spec.target or "s1"
    client_id = f"n{index}"
    journal = ClientJournal()

    async def run() -> int:
        fleet = ProxyFleet(cluster.addresses(), plans=plan,
                           default_target=target)
        await fleet.start()
        try:
            await _run_armed(fleet, client_id, journal)
            return fleet.faults_injected
        finally:
            await fleet.close()

    case.hit = asyncio.run(run()) > 0
    if spec.action == "partition-after":
        if not cluster.servers[target].alive:
            case.errors.append(
                f"partitioned daemon {target} died during the case")
        if not journal.switches:
            case.errors.append(
                "partition did not drive a §5.4 write-set switch")
        if not journal.completed:
            case.errors.append(
                f"workload did not complete off the partitioned server "
                f"({journal.aborted or 'incomplete'})")
        if journal.max_force_s > SWITCH_BUDGET_S:
            case.errors.append(
                f"switch took {journal.max_force_s:.2f}s, over the "
                f"{SWITCH_BUDGET_S:.2f}s detection budget")
    # Heal == the proxies are gone.  A network-only fault must never
    # kill a daemon; restart any casualty so one bad case cannot
    # cascade, but record it as the failure it is.
    for sid, entry in cluster.servers.items():
        if not entry.alive:
            case.errors.append(
                f"daemon {sid} died during a network-only case")
            cluster.restart(sid)
    case.errors.extend(asyncio.run(verify_restart(
        cluster.addresses(), client_id, _NET_CONFIG, journal)))
    case.ok = not case.errors
    return case


# -- the curated linearizable-handoff case -----------------------------------


def run_handoff_case(cluster: LoopbackCluster, index) -> CrashCase:
    """Writer takeover with the *old owner alive and half-reachable*.

    The adversarial shape §5.4 recovery alone cannot survive: the old
    writer is partitioned ``s2c`` on every link — deaf, but its frames
    still *reach* every daemon — while a second client seizes the
    stream via :meth:`~repro.rt.client.AsyncReplicatedLog.takeover`.
    The old writer then keeps forcing records (prefix
    :data:`_STALE_PREFIX`); only the durable fence stands between them
    and the log.  After healing, the case proves:

    * the old writer observes the terminal :class:`LogFenced` (not an
      endless retry loop) once it can hear replies again;
    * **zero** stale records are durable — checked against each healed
      daemon's on-disk files, reopened directly, not just through the
      read path;
    * the fence epoch itself is durable on at least ``M − N + 1``
      servers, so every possible write set stays poisoned;
    * the new owner's log is live throughout, and a final §5.4 restart
      sees a monotone epoch and every acked record.
    """
    case = CrashCase(point="handoff.partition", action="takeover")
    client_id = f"h{index}"
    config = _NET_CONFIG
    journal = ClientJournal()
    outcome = {"fenced": ""}

    async def run() -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda lp, ctx: None)
        fleet = ProxyFleet(cluster.addresses())
        await fleet.start()
        old = _make_client(fleet.addresses(), client_id)
        new = AsyncReplicatedLog(client_id, cluster.addresses(), config,
                                 timeout=2.0)
        try:
            await old.initialize()
            for txn in range(2):
                for i in range(4):
                    await journal.write(
                        old, f"{client_id}.pre.{txn}.{i}".encode())
                await journal.force(old)
            # Half-partition the old writer: every proxy drops
            # server→client, so it hears nothing — but its own frames
            # still land on every daemon.
            for proxy in fleet.proxies.values():
                proxy.partition("s2c")
            # The second process seizes the stream over its own links.
            await new.takeover()
            journal.epoch = new.current_epoch
            # The deaf old writer keeps forcing.  These frames reach
            # the daemons; the fence must refuse them *before* any
            # append, even though the refusals cannot be delivered.
            for i in range(4):
                payload = _STALE_PREFIX + f"{client_id}.{i}".encode()
                await old.write(payload)
            try:
                await asyncio.wait_for(old.force(),
                                       timeout=SWITCH_BUDGET_S)
                outcome["fenced"] = "acked while deaf"
            except LogFenced:
                outcome["fenced"] = "fenced"
            except (LogError, asyncio.TimeoutError):
                pass  # expected: no acks can arrive through the block
            # Heal: the old writer can hear again.  It keeps retrying
            # exactly as a real writer would — riding out transient
            # NotEnoughServers while its quarantined connections come
            # back — and must observe the *terminal* refusal within
            # the detection budget, never an ack.
            fleet.heal()
            deadline = loop.time() + 2 * SWITCH_BUDGET_S
            while not outcome["fenced"]:
                try:
                    await asyncio.wait_for(old.force(),
                                           timeout=SWITCH_BUDGET_S)
                    outcome["fenced"] = "acked after heal"
                except LogFenced:
                    outcome["fenced"] = "fenced"
                except (LogError, asyncio.TimeoutError) as exc:
                    if loop.time() > deadline:
                        outcome["fenced"] = f"not observed: {exc!r}"
                    else:
                        await asyncio.sleep(0.25)
            # The new owner's log was live through all of it.
            for i in range(4):
                await journal.write(new, f"{client_id}.post.{i}".encode())
            await journal.force(new)
        finally:
            await old.close()
            await new.close()
            await fleet.close()

    try:
        asyncio.run(run())
    except (LogError, OSError, asyncio.TimeoutError) as exc:
        case.errors.append(f"handoff case aborted: {exc!r}")
    if outcome["fenced"] != "fenced":
        case.errors.append(
            f"old writer was not terminally fenced: "
            f"{outcome['fenced'] or 'no refusal observed'}")
    # Durable-file check, per daemon: kill it, reopen its store the
    # way a restart would, and look for leaked stale records and the
    # standing fence.  The daemons come back healed afterwards.
    fence_holders = 0
    for sid, entry in sorted(cluster.servers.items()):
        if not entry.alive:
            case.errors.append(f"daemon {sid} died during the handoff "
                               f"case")
            continue
        cluster.kill(sid)
        store = FileLogStore(entry.data_dir, sid)
        try:
            if store.fence_epoch(client_id) >= (journal.epoch or 1):
                fence_holders += 1
            for lsn in store.stored_lsns(client_id):
                if store.read_record(client_id, lsn).data.startswith(
                        _STALE_PREFIX):
                    case.errors.append(
                        f"stale record committed past the fence: "
                        f"{sid} lsn {lsn}")
        finally:
            store.close()
        cluster.start_server(sid)
    if fence_holders < config.init_quorum:
        case.errors.append(
            f"fence durable on only {fence_holders} servers; "
            f"{config.init_quorum} needed to poison every write set")
    # Final §5.4 restart over the healed daemons: epoch monotone, all
    # acked records (old pre-handoff + new post-handoff) durable, and
    # nothing stale readable anywhere.
    case.errors.extend(asyncio.run(verify_restart(
        cluster.addresses(), client_id, config, journal)))
    case.ok = not case.errors
    return case


# -- composite (fuzz) plans --------------------------------------------------


def draw_fuzz_plan(rng: random.Random, sites: dict[str, int]) -> Plan:
    """One seeded plan of 2–4 faults across the three families, drawn
    over the enumerated net site menu (site → points reached)."""
    n_faults = rng.randint(2, 4)
    plan: list[FaultSpec] = []
    seen: set[tuple[str, str]] = set()
    tries = 0
    while len(plan) < n_faults and tries < 64:
        tries += 1
        family = rng.choices(("net", "storage", "client"),
                             weights=(3, 1, 1))[0]
        if family == "net":
            site = rng.choice(sorted(sites))
            index = rng.randrange(min(sites[site], 3))
            point = FaultSpec(site, index,
                              target=rng.choice(("s1", "s1", "s2", "s3")))
            actions = ["drop", "delay", "duplicate", "corrupt-header",
                       "truncate-mid-frame", "partition-after",
                       "kill-connection-after"]
            if point.kind in RECORD_BEARING_KINDS:
                actions.append("corrupt-payload")
        elif family == "storage":
            sid = rng.choice(("s1", "s2"))
            point = FaultSpec(rng.choice(_FUZZ_STORAGE_SITES),
                              rng.randrange(6), target=sid)
            actions = _FUZZ_STORAGE_ACTIONS
        else:
            point = FaultSpec(rng.choice(_FUZZ_CLIENT_SITES),
                              rng.randrange(2))
            actions = ("raise",)
        if (point.target, point.point) in seen:
            continue
        seen.add((point.target, point.point))
        # A lone action draws nothing: the seed fixes the RNG sequence,
        # and with it every plan the committed baselines name.
        plan.append(point.arm(rng.choice(actions) if len(actions) > 1
                              else actions[0]))
    # Net, storage, client: the order the plan text has always had (it
    # is a case's replay key) and the order the case arms them in.
    return tuple(sorted(plan, key=lambda spec: (
        "net", "storage", "client").index(spec.family)))


def run_fuzz_case(cluster: LoopbackCluster, index, plan: Plan) -> CrashCase:
    """One composed multi-fault case; revive the fleet, then verify."""
    case = CrashCase(plan_text(plan), "fuzz")
    kills = tuple(spec for spec in plan if spec.family == "client")
    bad = [spec.spec for spec in kills if spec.action != "raise"]
    if bad:
        case.errors.append(
            f"fuzz cases only support in-process client faults "
            f"(action 'raise'); got {', '.join(bad)}")
        case.ok = False
        return case
    client_id = f"f{index}"
    journal = ClientJournal()
    armed = by_target(
        (spec for spec in plan if spec.family == "storage"), "s1")
    for sid, faults in armed.items():
        cluster.restart(sid, extra_args=["--fault-plan", plan_text(faults)])

    async def run() -> int:
        fleet = ProxyFleet(
            cluster.addresses(),
            plans=tuple(spec for spec in plan if spec.family == "net"),
            seed=index if isinstance(index, int) else 0)
        await fleet.start()
        injector = ClientFaultInjector(kills)
        clientfault.install(injector)
        try:
            try:
                await _run_armed(fleet, client_id, journal)
            except ClientCrash as crash:
                journal.aborted = f"client crashed at {crash.point}"
            return fleet.faults_injected + injector.crashes
        finally:
            clientfault.install(None)
            await fleet.close()

    try:
        fired = asyncio.run(run())
    finally:
        cluster.revive(list(armed))
    case.hit = fired > 0 or any(not cluster.servers[sid].alive
                                for sid in armed)
    case.errors.extend(asyncio.run(verify_restart(
        cluster.addresses(), client_id, _NET_CONFIG, journal)))
    case.ok = not case.errors
    return case


# -- the phases --------------------------------------------------------------


def net_phases(cluster: LoopbackCluster, *, seed: int,
               fuzz: int) -> list[Phase]:
    """The four network-side phases over one shared 3-daemon cluster.

    Each case gets a fresh client id and a fresh proxy fleet (fuzz
    cases additionally restart the daemons they arm storage faults
    on).  The net sweep and the fuzzer share one frame enumeration.
    """
    enumerate_once = functools.cache(lambda: enumerate_net_points(cluster))

    def draw(trace, quick: bool) -> list[Plan]:
        menu = site_counts(trace)
        return [draw_fuzz_plan(random.Random(seed * 1_000_003 + i), menu)
                for i in range(fuzz)]

    return [
        Phase("net", enumerate=enumerate_once, select=select_net_cases,
              run_case=functools.partial(run_net_case, cluster),
              replay="repro crashsweep --point"),
        # §5.4 under partition: the old server stays alive.
        Phase("partition",
              select=lambda trace, quick: (PARTITION_CASES[:1] if quick
                                           else PARTITION_CASES),
              run_case=lambda n, plan: run_net_case(cluster, f"p{n}", plan),
              replay="repro crashsweep --point"),
        # Fenced takeover with the old writer alive and half-partitioned:
        # one scripted scenario, nothing armed.
        Phase("handoff", select=lambda trace, quick: [()],
              run_case=lambda n, plan: run_handoff_case(cluster, f"x{n}")),
        Phase("fuzz", enumerate=enumerate_once, select=draw,
              run_case=functools.partial(run_fuzz_case, cluster),
              replay="repro crashsweep --plan"),
    ]
