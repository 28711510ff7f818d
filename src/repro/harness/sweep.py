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
* :class:`ClientJournal` and :func:`verify_restart` are the one
  client-visible journal and the one restart-and-read-back check the
  daemon, network and fuzz phases share.  The invariants — acked
  records durable with their exact payload, nothing fabricated, the
  epoch strictly monotone, the log live afterwards — pin
  *recoverability*, not one byte-exact history: an unacked write or an
  unacked truncation may or may not have landed.

The storage phase checks a store directly and the client phase checks
journals written by other OS processes; their verifiers
(:func:`repro.harness.crashsweep._verify`, ``_client_verify``) check
more and stay where their journals are.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass, field

from ..core.config import ReplicationConfig
from ..core.errors import LogError
from ..rt.faultspec import FaultSpec, plan_text

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


# -- the client-visible journal and its verifier ----------------------------


@dataclass
class ClientJournal:
    """What a scripted client workload promised (acks) and attempted.

    The ``write`` / ``force`` / ``truncate`` wrappers keep the one
    discipline every workload needs: an intent is journaled *before*
    the call (a record can reach a server even if the call never
    returns) and a promise only *after* it returned (an interrupted
    call carries none).
    """

    epoch: int = 0
    #: every payload handed to ``write()``.
    intents: list[bytes] = field(default_factory=list)
    #: lsn → payload, for writes that returned.
    attempts: dict[int, bytes] = field(default_factory=dict)
    acked_high: int = 0
    trunc_req: int = 0
    trunc_ack: int = 0
    max_force_s: float = 0.0
    switches: int = 0
    completed: bool = False
    aborted: str = ""

    async def write(self, log, payload: bytes) -> None:
        self.intents.append(payload)
        self.attempts[await log.write(payload)] = payload

    async def force(self, log) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        high = await log.force()
        self.max_force_s = max(self.max_force_s, loop.time() - t0)
        self.acked_high = max(self.acked_high, high)

    async def truncate(self, log, low: int) -> None:
        self.trunc_req = max(self.trunc_req, low)
        await log.truncate(low)
        self.trunc_ack = max(self.trunc_ack, low)


async def verify_restart(addresses: dict, client_id: str,
                         config: ReplicationConfig,
                         journal: ClientJournal) -> list[str]:
    """§5.4 restart directly against healed daemons; check the invariants.

    A truncation requested but not acknowledged may or may not have
    been applied, so the durability floor is the highest *requested*
    mark; a record that does survive below it still goes through the
    no-fabrication check.
    """
    from ..rt.client import AsyncReplicatedLog

    errors: list[str] = []
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    log = AsyncReplicatedLog(client_id, addresses, config, timeout=5.0)
    try:
        await log.initialize()
        if journal.epoch and log.current_epoch <= journal.epoch:
            errors.append(
                f"epoch not monotone: recovery drew {log.current_epoch} "
                f"after the workload ran at {journal.epoch}")
        floor = max(journal.trunc_ack, journal.trunc_req)
        end = log.end_of_log()
        if journal.acked_high and end < journal.acked_high:
            errors.append(f"end_of_log {end} below acked high "
                          f"{journal.acked_high}")
        allowed = set(journal.intents)
        for lsn in range(1, end + 1):
            acked = (lsn in journal.attempts
                     and lsn <= journal.acked_high and lsn >= floor)
            try:
                record = await log.read(lsn)
            except LogError as exc:
                # Guard, truncated, or never-landed unacked write: all
                # legal — unless the record was acked.
                if acked:
                    errors.append(f"acked lsn {lsn} lost after heal: "
                                  f"{exc}")
                continue
            want = journal.attempts.get(lsn)
            if want is not None:
                if record.data != want:
                    errors.append(f"lsn {lsn} does not match the write "
                                  f"assigned to it")
            elif record.data not in allowed:
                errors.append(f"fabricated record at lsn {lsn}")
        # Post-heal liveness: a fresh transaction acks and reads back.
        post: list[tuple[int, bytes]] = []
        for i in range(2):
            data = f"post.{client_id}.{i}".encode()
            post.append((await log.write(data), data))
        await log.force()
        for lsn, data in post:
            record = await log.read(lsn)
            if record.data != data:
                errors.append(f"post-heal write at lsn {lsn} not "
                              f"readable")
    except LogError as exc:
        errors.append(f"post-heal recovery failed: {exc!r}")
    finally:
        await log.close()
    return errors
