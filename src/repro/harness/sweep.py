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
from collections.abc import Callable
from dataclasses import dataclass, field

from ..core.config import ReplicationConfig
from ..core.errors import LogError
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


# -- the one restart-and-check -------------------------------------------------


async def verify_restart(addresses: dict, client_id: str,
                         config: ReplicationConfig,
                         history: History) -> list[str]:
    """§5.4 restart directly against healed daemons, observed into
    ``history``; the broken promises of the whole history."""
    from ..rt.client import AsyncReplicatedLog

    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    log = AsyncReplicatedLog(client_id, addresses, config, timeout=5.0)
    try:
        await log.initialize()
        history.epoch(log)
        await observe(log, history)
    except LogError as exc:
        return [f"live: post-heal recovery failed: {exc!r}"]
    finally:
        await log.close()
    return check(history)
