"""Network phase of ``repro crashsweep``: frame faults + multi-fault fuzz.

The storage and client phases prove durability across crashes of the
*endpoints*; this phase proves it across misbehavior of the *network*
between them — the paper's actual failure model for server switching
(§5.4) and N-of-M write-set availability.  Three real ``repro serve``
daemons run behind per-server :class:`~repro.rt.chaosproxy.ChaosProxy`
instances (a :class:`~repro.rt.chaosproxy.ProxyFleet`), and the sweeps'
one client workload (:func:`~repro.harness.sweep.run_workload`, at
``M=3, N=2``) runs through them:

1. **Record** — one clean recording run
   (:func:`~repro.harness.sweep.record`); every frame crossing s1's
   proxy is a point ``net.<kind>.<dir>:<index>`` (keep-alive
   ping/pong excluded: their timing is not deterministic).
2. **Sweep** — re-run the workload once per (point, action) with that
   single network :class:`~repro.rt.faultspec.FaultSpec` armed, plus
   curated ``partition-after`` cases where the §5.4 switch must
   complete off a server that is *alive and reachable in one
   direction* within :data:`SWITCH_BUDGET_S`.
3. **Verify** — heal (drop the proxies), confirm no daemon died, then
   re-run the §5.4 restart with the same client id *directly* against
   the daemons, observe the log into the case's
   :class:`~repro.harness.oracle.History`, and
   :func:`~repro.harness.oracle.check` it.

The net and partition cases share one 3-daemon cluster: a frame fault
never corrupts durable state.  Both run through the one runner,
:func:`~repro.harness.sweep.run_case`; the partition phase passes in
its liveness checks (:func:`switched_within_budget`).

The **fuzz phase** (``repro crashsweep --fuzz N --seed S``) composes
2–4 faults per case across all three injector families — network
frame faults, storage faults armed on a daemon via ``--fault-plan``
(power-loss/EIO only: silent storage corruption voids acked-durability
by design and belongs to the storage phase), and in-process client
protocol crashes (action ``raise``).  :func:`draw_fuzz_plan` draws
each spec only from the points a recording run reached on that
spec's target, and spec k+1 from a recording run with specs 1..k
armed: a spec is kept only if that run fired it and every spec before
it.  Each fuzz case, and each of its recording runs, gets a fresh
cluster, so the armed run starts from the state its recording did.  A
case's plan text round-trips through
:func:`~repro.rt.faultspec.parse_plan`, so any failure is replayable
with ``repro crashsweep --plan SPEC``.  The workload may legally abort
mid-case (e.g. two faulted servers leave no write quorum); the
invariants are checked regardless, after the fleet is revived.

Each of the four is a :class:`~repro.harness.sweep.Phase`
(:func:`net_phases`) run by the one loop in :mod:`repro.harness.sweep`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
from collections.abc import Callable
from pathlib import Path

from ..core.errors import LogError, LogFenced
from ..net.codec import RECORD_BEARING_KINDS
from ..rt.chaosproxy import ProxyFleet
from ..rt.cluster import LoopbackCluster
from ..rt.faultspec import FaultSpec, parse_plan
from ..rt.filestore import FileLogStore
from .sweep import (
    CLIENT_TIMEOUT_S,
    KEEPALIVE_INTERVAL_S,
    KEEPALIVE_MISSES,
    SWEEP_CONFIG,
    CrashCase,
    Phase,
    Plan,
    Run,
    by_site,
    reached,
    record,
    run_case,
    run_fresh,
    sweep_client,
    verify_restart,
)

#: §5.4 detection + switch budget for a *partitioned* (not killed)
#: server: the slower detector — the force-ack timeout (a ``c2s``
#: partition starves acks) vs the keep-alive miss budget (an ``s2c``
#: partition starves all inbound bytes) — plus generous single-core CI
#: slack for the switch's NewInterval + window re-feed round.
SWITCH_BUDGET_S = max(CLIENT_TIMEOUT_S,
                      KEEPALIVE_INTERVAL_S * (KEEPALIVE_MISSES + 1)) + 4.0

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
#: ``raise``; process deaths are the client phase's subject).  The
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


# -- case selection ----------------------------------------------------------


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


def switched_within_budget(run: Run) -> list[str]:
    """The partition phase's liveness: the partition drove a §5.4
    write-set switch, the workload completed off the partitioned
    server, and no force waited longer than :data:`SWITCH_BUDGET_S`."""
    errors = []
    if not run.switches:
        errors.append("live: partition did not drive a §5.4 write-set "
                      "switch")
    if not run.completed:
        errors.append(f"live: workload did not complete off the "
                      f"partitioned server ({run.aborted or 'incomplete'})")
    if run.max_force_s > SWITCH_BUDGET_S:
        errors.append(f"live: switch took {run.max_force_s:.2f}s, over the "
                      f"{SWITCH_BUDGET_S:.2f}s detection budget")
    return errors


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
    config = SWEEP_CONFIG
    run = Run()
    history = run.history
    outcome = {"fenced": "", "epoch": 0}

    async def handoff() -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda lp, ctx: None)
        fleet = ProxyFleet(cluster.addresses())
        await fleet.start()
        old = sweep_client(fleet.addresses(), client_id, config)
        new = sweep_client(cluster.addresses(), client_id, config)
        try:
            await old.initialize()
            history.epoch(old)
            for txn in range(2):
                await run.commit_et1(old, txn)
            # Half-partition the old writer: every proxy drops
            # server→client, so it hears nothing — but its own frames
            # still land on every daemon.
            for proxy in fleet.proxies.values():
                proxy.partition("s2c")
            # The second process seizes the stream over its own links.
            await new.takeover()
            history.epoch(new)
            outcome["epoch"] = new.current_epoch
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
            await run.commit_et1(new, 2)
        finally:
            await old.close()
            await new.close()
            await fleet.close()

    try:
        asyncio.run(handoff())
    except (LogError, OSError, asyncio.TimeoutError) as exc:
        case.errors.append(f"live: handoff case aborted: {exc!r}")
    if outcome["fenced"] != "fenced":
        case.errors.append(
            f"fenced: old writer was not terminally fenced: "
            f"{outcome['fenced'] or 'no refusal observed'}")
    # Durable-file check, per daemon: kill it, reopen its store the
    # way a restart would, and look for leaked stale records and the
    # standing fence.  The daemons come back healed afterwards.
    fence_holders = 0
    for sid, entry in sorted(cluster.servers.items()):
        if not entry.alive:
            case.errors.append(f"live: daemon {sid} died during the "
                               f"handoff case")
            continue
        cluster.kill(sid)
        store = FileLogStore(entry.data_dir, sid)
        try:
            if store.fence_epoch(client_id) >= (outcome["epoch"] or 1):
                fence_holders += 1
            for lsn in store.stored_lsns(client_id):
                if store.read_record(client_id, lsn).data.startswith(
                        _STALE_PREFIX):
                    case.errors.append(
                        f"fenced: stale record committed past the fence: "
                        f"{sid} lsn {lsn}")
        finally:
            store.close()
        cluster.start_server(sid)
    if fence_holders < config.init_quorum:
        case.errors.append(
            f"fenced: fence durable on only {fence_holders} servers; "
            f"{config.init_quorum} needed to poison every write set")
    # Final §5.4 restart over the healed daemons: epoch monotone, all
    # acked records (old pre-handoff + new post-handoff) durable, and
    # nothing stale readable anywhere (stale writes are no intents).
    case.errors.extend(asyncio.run(verify_restart(
        cluster.addresses(), client_id, config, history)))
    case.ok = not case.errors
    return case


# -- composite (fuzz) plans --------------------------------------------------

#: how often the fuzzer draws each family's next spec, relatively.
_FUZZ_WEIGHTS = {"net": 3, "storage": 1, "client": 1}

#: how many candidates :func:`draw_fuzz_plan` tries for one spec.
_FUZZ_TRIES = 8

#: a recording run with a plan armed → (whether every armed spec
#: fired, the targeted points it reached).
Reach = Callable[[Plan], tuple[bool, tuple[FaultSpec, ...]]]


def _fuzz_actions(point: FaultSpec) -> tuple[str, ...]:
    if point.family == "storage":
        return _FUZZ_STORAGE_ACTIONS
    if point.family == "client":
        return ("raise",)
    actions = ("drop", "delay", "duplicate", "corrupt-header",
               "truncate-mid-frame", "partition-after",
               "kill-connection-after")
    if point.kind in RECORD_BEARING_KINDS:
        actions += ("corrupt-payload",)
    return actions


def _draw_spec(rng: random.Random, trace, plan: Plan) -> FaultSpec | None:
    """One spec at a point ``trace`` reached and ``plan`` does not arm:
    a family by :data:`_FUZZ_WEIGHTS`, one of its reached sites, one
    reached point of that site on any target, one of its actions."""
    armed = {(spec.target, spec.point) for spec in plan}
    menu: dict[str, dict[str, list[FaultSpec]]] = {}
    for point in trace:
        if (point.target, point.point) in armed \
                or point.family == "storage" \
                and point.site not in _FUZZ_STORAGE_SITES \
                or point.family == "client" \
                and point.site not in _FUZZ_CLIENT_SITES:
            continue
        menu.setdefault(point.family, {}).setdefault(
            point.site, []).append(point)
    families = [family for family in _FUZZ_WEIGHTS if family in menu]
    if not families:
        return None
    family = rng.choices(families, weights=[_FUZZ_WEIGHTS[family]
                                            for family in families])[0]
    sites = menu[family]
    point = rng.choice(sites[rng.choice(sorted(sites))])
    return point.arm(rng.choice(_fuzz_actions(point)))


def draw_fuzz_plan(rng: random.Random, reach: Reach) -> Plan:
    """One seeded plan of 2–4 faults across the three families.

    Spec k+1 is drawn from the points reached by ``reach(specs 1..k)``
    (the clean recording for the first) and kept only if the recording
    run with it armed too fired every spec: a later fault that lands
    early can divert the run past an earlier one's point.  Up to
    :data:`_FUZZ_TRIES` candidates are drawn per spec.
    """
    plan: Plan = ()
    _, trace = reach(plan)
    for _ in range(rng.randint(2, 4)):
        for _ in range(_FUZZ_TRIES):
            spec = _draw_spec(rng, trace, plan)
            if spec is None:
                break
            hit, armed = reach(plan + (spec,))
            if hit:
                plan, trace = plan + (spec,), armed
                break
    # Net, storage, client: the order the plan text has always had (it
    # is a case's replay key) and the order the case arms them in.
    return tuple(sorted(plan, key=lambda spec: (
        "net", "storage", "client").index(spec.family)))


# -- the phases --------------------------------------------------------------


def net_phases(cluster: LoopbackCluster, root: Path, *, seed: int,
               fuzz: int) -> list[Phase]:
    """The four network-side phases.

    The net, partition and handoff cases share ``cluster``, each with a
    fresh client id and a fresh proxy fleet; the fuzz cases and their
    recording runs each get a fresh cluster under ``root``.  The net
    sweep and the fuzzer share one clean recording.
    """
    recorded = functools.cache(
        lambda: record(root / "record", SWEEP_CONFIG)[1])
    draws = itertools.count()

    def reach(plan: Plan) -> tuple[bool, tuple[FaultSpec, ...]]:
        if not plan:
            return True, recorded()
        case, trace = record(root / f"draw-{next(draws)}", SWEEP_CONFIG,
                             plan)
        return case.hit, trace

    def draw(trace, quick: bool) -> list[Plan]:
        return [draw_fuzz_plan(random.Random(seed * 1_000_003 + i), reach)
                for i in range(fuzz)]

    return [
        Phase("net", enumerate=lambda: reached(recorded(), "net", "s1"),
              select=select_net_cases,
              run_case=lambda n, plan: run_case(
                  cluster, SWEEP_CONFIG, plan, client_id=f"n{n}"),
              replay="repro crashsweep --point"),
        # §5.4 under partition: the old server stays alive.
        Phase("partition",
              select=lambda trace, quick: (PARTITION_CASES[:1] if quick
                                           else PARTITION_CASES),
              run_case=lambda n, plan: run_case(
                  cluster, SWEEP_CONFIG, plan, client_id=f"p{n}",
                  live=switched_within_budget),
              replay="repro crashsweep --point"),
        # Fenced takeover with the old writer alive and half-partitioned:
        # one scripted scenario, nothing armed.
        Phase("handoff", select=lambda trace, quick: [()],
              run_case=lambda n, plan: run_handoff_case(cluster, f"x{n}")),
        Phase("fuzz", enumerate=recorded, select=draw,
              run_case=lambda n, plan: run_fresh(root / f"fuzz-{n}",
                                                 SWEEP_CONFIG, plan),
              replay="repro crashsweep --plan"),
    ]
