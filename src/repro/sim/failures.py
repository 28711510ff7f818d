"""Failure injection: independent crash/repair schedules per node.

Section 3.2's analysis assumes "log server nodes fail independently and
are unavailable with probability p".  :class:`UpDownProcess` realizes
that over time: an alternating-renewal process with exponential up and
down times, whose long-run unavailability is ``mttr / (mtbf + mttr)``,
so experiments can pick (mtbf, mttr) to hit the paper's ``p = 0.05``.
(The instantaneous snapshot — each node down with probability ``p`` —
needs no sampler: ``harness/experiments.py::run_down_sets`` weighs
every down-set exactly.)

On top of that, :class:`ClusterChurn` drives many targets — log
servers, generator-state representatives, LAN links — through
independent schedules inside one simulation, integrating exactly how
much time the cluster spent with each number of targets down, and
:class:`LinkDegrader` adapts a LAN into a :class:`Crashable` whose
"crash" is message loss rather than a full partition.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Protocol

from .kernel import Interrupt, Simulator
from .rng import RngRegistry


class Crashable(Protocol):
    """A node that can be taken down and brought back (state survives)."""

    def crash(self) -> None: ...
    def restart(self) -> None: ...


def unavailability(mtbf: float, mttr: float) -> float:
    """Long-run probability of being down for an up/down process."""
    if mtbf <= 0 or mttr < 0:
        raise ValueError("mtbf must be positive and mttr non-negative")
    return mttr / (mtbf + mttr)


def mttr_for_unavailability(mtbf: float, p: float) -> float:
    """The repair time making long-run unavailability equal ``p``.

    ``p = 0`` yields ``mttr = 0``, which no :class:`UpDownProcess` will
    accept — an always-up node needs no injector at all (see
    :meth:`UpDownProcess.for_unavailability`).
    """
    if not 0 <= p < 1:
        raise ValueError("p must be in [0, 1)")
    return mtbf * p / (1 - p)


def node_is_up(node: object) -> bool | None:
    """Best-effort probe of a :class:`Crashable`'s current state.

    The repo's crashables expose their state under different names:
    ``available`` (stores, generator representatives), ``up`` (LANs,
    :class:`LinkDegrader`), or ``crashed`` (simulated servers).
    Returns ``None`` when the node exposes none of them.
    """
    for attr, up_means in (("available", True), ("up", True),
                           ("crashed", False)):
        value = getattr(node, attr, None)
        if isinstance(value, bool):
            return value is up_means
    return None


class UpDownProcess:
    """Drives a :class:`Crashable` through exponential up/down cycles."""

    def __init__(
        self,
        sim: Simulator,
        target: Crashable,
        mtbf: float,
        mttr: float,
        rng: random.Random,
        on_change: Callable[[bool], None] | None = None,
    ):
        if mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {mtbf}")
        if mttr <= 0:
            raise ValueError(
                f"mttr must be positive, got {mttr}; an unavailability "
                "of p = 0 means 'no injector' — do not construct an "
                "UpDownProcess for an always-up node"
            )
        self.sim = sim
        self.target = target
        self.mtbf = mtbf
        self.mttr = mttr
        self.rng = rng
        self.on_change = on_change
        self.crashes = 0
        self.down_time = 0.0
        #: True while the schedule holds the target down.
        self.target_down = False
        self._down_since = 0.0
        self.process = sim.spawn(self._run(), name="up-down")

    def _run(self):
        try:
            while True:
                yield self.sim.timeout(self.rng.expovariate(1.0 / self.mtbf))
                self.target.crash()
                self.crashes += 1
                self.target_down = True
                self._down_since = self.sim.now
                if self.on_change is not None:
                    self.on_change(False)
                yield self.sim.timeout(self.rng.expovariate(1.0 / self.mttr))
                self._repair()
        except Interrupt:
            # stop() while the target is down: bring it back before
            # ending the schedule, unless someone already restarted it
            # (the probe keeps a redundant restart() from re-running a
            # server's crash scan on a healthy node).
            if self.target_down:
                if node_is_up(self.target) is not True:
                    self._repair()
                else:
                    self.down_time += self.sim.now - self._down_since
                    self.target_down = False

    def _repair(self) -> None:
        self.target.restart()
        self.down_time += self.sim.now - self._down_since
        self.target_down = False
        if self.on_change is not None:
            self.on_change(True)

    def stop(self) -> None:
        """End the schedule, leaving the target up."""
        if not self.process.triggered:
            self.process.interrupt("stop failure injection")

    @classmethod
    def for_unavailability(
        cls,
        sim: Simulator,
        target: Crashable,
        mtbf: float,
        p: float,
        rng: random.Random,
        on_change: Callable[[bool], None] | None = None,
    ) -> "UpDownProcess | None":
        """An injector tuned to long-run unavailability ``p``.

        Returns ``None`` for ``p = 0`` — an always-up node has no
        failure schedule.
        """
        if p == 0:
            return None
        return cls(sim, target, mtbf, mttr_for_unavailability(mtbf, p),
                   rng, on_change)


class LinkDegrader:
    """A :class:`Crashable` view of a LAN that fails by *losing messages*.

    ``crash()`` raises the LAN's loss probability to ``degraded_loss``
    (``1.0`` models a partition that still accepts sends); ``restart()``
    restores the original probability.  This lets one churn schedule
    drive network degradation alongside server crashes.
    """

    def __init__(self, lan, degraded_loss: float = 1.0):
        if not 0 < degraded_loss <= 1:
            raise ValueError("degraded_loss must be in (0, 1]")
        self.lan = lan
        self.degraded_loss = degraded_loss
        self._healthy_loss = lan.loss_prob
        self.up = True

    def crash(self) -> None:
        if self.up:
            self._healthy_loss = self.lan.loss_prob
            self.lan.loss_prob = self.degraded_loss
            self.up = False

    def restart(self) -> None:
        if not self.up:
            self.lan.loss_prob = self._healthy_loss
            self.up = True


class ClusterChurn:
    """Concurrent up/down schedules over a named group of targets.

    One coordinator owns an :class:`UpDownProcess` per target, all
    seeded from one master seed (a named stream per target, so adding a
    target never perturbs the others' schedules).  It integrates, in
    simulated time, how long the group spent with exactly ``d`` targets
    down — the measurement the §3.2 availability comparison needs.
    """

    def __init__(
        self,
        sim: Simulator,
        targets: Mapping[str, Crashable],
        mtbf: float,
        mttr: float,
        seed: int = 0,
        name: str = "churn",
        on_change: Callable[[str, bool], None] | None = None,
    ):
        if not targets:
            raise ValueError("ClusterChurn needs at least one target")
        self.sim = sim
        self.name = name
        self.on_change = on_change
        self.down: set[str] = set()
        self._durations: dict[int, float] = {}
        self._last_change = sim.now
        self._start = sim.now
        registry = RngRegistry(seed)
        self.injectors: dict[str, UpDownProcess] = {
            target_id: UpDownProcess(
                sim, target, mtbf, mttr,
                rng=registry.stream(f"{name}.{target_id}"),
                on_change=self._observer(target_id),
            )
            for target_id, target in targets.items()
        }

    def _observer(self, target_id: str) -> Callable[[bool], None]:
        def observe(up: bool) -> None:
            self._account()
            if up:
                self.down.discard(target_id)
            else:
                self.down.add(target_id)
            if self.on_change is not None:
                self.on_change(target_id, up)
        return observe

    def _account(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            d = len(self.down)
            self._durations[d] = self._durations.get(d, 0.0) + elapsed
        self._last_change = now

    def stop(self) -> None:
        """Stop every schedule; targets come back up (see UpDownProcess)."""
        for injector in self.injectors.values():
            injector.stop()

    # -- measurement -------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.sim.now - self._start

    def down_histogram(self) -> dict[int, float]:
        """Simulated seconds spent with exactly ``d`` targets down."""
        self._account()
        return dict(self._durations)

    def fraction_time_at_most_down(self, max_down: int) -> float:
        """Fraction of elapsed time with no more than ``max_down`` down.

        With ``max_down = M − N`` this is the measured WriteLog
        availability; with ``N − 1`` the measured client-initialization
        availability (§3.2).
        """
        total = self.elapsed
        if total <= 0:
            return 1.0
        good = sum(seconds for d, seconds in self.down_histogram().items()
                   if d <= max_down)
        return good / total

    def crashes(self) -> int:
        return sum(inj.crashes for inj in self.injectors.values())
