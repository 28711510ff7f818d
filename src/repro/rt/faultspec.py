"""The one fault grammar and the one crash-point counter.

Three injector families misbehave at *deterministic points* of a
scripted workload, and all three speak the same spec::

    [TARGET@]SITE:INDEX[:ACTION]      e.g.  s2@log.fsync:2:power-loss

``SITE`` names an instrumented operation and fixes the **family** by
its prefix; ``INDEX`` is the zero-based invocation count of that site,
so ``SITE:INDEX`` — a *point* — identifies one exact operation of a
deterministic run; ``ACTION`` is what goes wrong there, drawn from the
family's vocabulary; ``TARGET`` routes the spec to one server of a
cluster (the server's daemon for storage faults, its proxy for network
faults) and is illegal on client faults, which run in the client
process.

==========  ====================  ================================
family      site shape            actions
==========  ====================  ================================
``storage`` anything else         :data:`STORAGE_ACTIONS`
``client``  ``client.<step>``     :data:`CLIENT_ACTIONS`
``net``     ``net.<kind>.<dir>``  :data:`NET_ACTIONS`
==========  ====================  ================================

(``<kind>`` is a wire message name from
:data:`repro.net.codec.NAME_TYPES`, ``<dir>`` one of
:data:`FRAME_DIRECTIONS`.)  What each action *does* is documented by
the injector that performs it: :mod:`repro.rt.faultfs`,
:mod:`repro.rt.clientfault`, :mod:`repro.rt.chaosproxy`.

A *plan* is a comma-separated list of specs armed together
(:func:`parse_plan`, :func:`plan_text`).  A spec without an action is a
bare point — what a recording run traces and what ``repro crashsweep
--point SITE:IDX`` accepts; :meth:`FaultSpec.arm` gives it an action.
Every malformed input raises :class:`FaultSpecError` naming the bad
token.

:class:`PointCounter` is the bookkeeping every injector shares: count
the site, append ``site:index`` to the trace, return the armed spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ..net.codec import NAME_TYPES

STORAGE_ACTIONS = ("enospc", "eio", "short-write", "torn", "bit-flip",
                   "power-loss")
CLIENT_ACTIONS = ("exit", "sigkill", "raise")
NET_ACTIONS = ("drop", "corrupt-payload", "corrupt-header",
               "truncate-mid-frame", "delay", "duplicate",
               "partition-after", "kill-connection-after")

#: Frame directions a network site can name.
FRAME_DIRECTIONS = ("c2s", "s2c")

_ACTIONS = {"storage": STORAGE_ACTIONS, "client": CLIENT_ACTIONS,
            "net": NET_ACTIONS}

#: The action :meth:`FaultSpec.arm` gives a bare point.
_DEFAULT_ACTION = {"storage": "power-loss", "client": "exit", "net": "drop"}


class FaultSpecError(ValueError):
    """A malformed fault spec, naming the token that is wrong.

    ``token`` is the exact substring that failed to parse (the whole
    spec when its shape is wrong), so a CLI error or a harness log
    pinpoints the mistake in a long multi-fault plan string.
    """

    def __init__(self, spec: str, token: str, reason: str):
        super().__init__(
            f"bad fault spec {spec!r}: token {token!r} {reason}"
        )
        self.spec = spec
        self.token = token
        self.reason = reason


@dataclass(frozen=True)
class FaultSpec:
    """``action`` at the ``index``-th invocation of ``site`` on ``target``.

    Validated at construction against the family its site names, so a
    spec that exists is one some injector can perform.
    """

    site: str
    index: int
    action: str = ""
    target: str = ""

    def __post_init__(self) -> None:
        spec, family = self.spec, self.family
        if not self.site:
            raise FaultSpecError(spec, "", "is an empty site name")
        if family == "net":
            parts = self.site.split(".")
            if len(parts) != 3:
                raise FaultSpecError(
                    spec, self.site,
                    "is not a network fault site (net.<kind>.<dir>)")
            if parts[1] not in NAME_TYPES:
                raise FaultSpecError(
                    spec, parts[1],
                    "is not a wire message kind (see net.codec.NAME_TYPES)")
            if parts[2] not in FRAME_DIRECTIONS:
                raise FaultSpecError(
                    spec, parts[2], f"is not a frame direction (one of "
                    f"{', '.join(FRAME_DIRECTIONS)})")
        if self.index < 0:
            raise FaultSpecError(spec, str(self.index),
                                 "is a negative invocation index")
        if self.action and self.action not in _ACTIONS[family]:
            raise FaultSpecError(
                spec, self.action, f"is not a {family} fault action "
                f"(one of {', '.join(_ACTIONS[family])})")
        if self.target and family == "client":
            raise FaultSpecError(
                spec, spec, "routes a client fault to a server (client "
                "faults run in the client process)")

    @property
    def family(self) -> str:
        if self.site.startswith("net."):
            return "net"
        return "client" if self.site.startswith("client.") else "storage"

    @property
    def kind(self) -> str:
        """The wire message kind of a network site."""
        return self.site.split(".")[1]

    @property
    def point(self) -> str:
        return f"{self.site}:{self.index}"

    @property
    def spec(self) -> str:
        """The text :func:`parse_plan` reads back as this spec."""
        return ((f"{self.target}@" if self.target else "") + self.point
                + (f":{self.action}" if self.action else ""))

    def arm(self, action: str = "") -> "FaultSpec":
        """This point with ``action``; with none given, its own, or for
        a bare point the family's replay default."""
        return replace(self, action=action or self.action
                       or _DEFAULT_ACTION[self.family])


def parse_plan(text: str) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated plan of ``[TARGET@]SITE:IDX[:ACTION]``.

    Whitespace around specs is tolerated.  An empty plan, an empty
    token between commas, an empty target before ``@``, a wrong shape,
    a non-integer index, a point armed twice for the same target, or
    anything :class:`FaultSpec` itself rejects raises
    :class:`FaultSpecError` naming the bad token.
    """
    tokens = [token.strip() for token in text.split(",")]
    if tokens == [""]:
        raise FaultSpecError(text, text, "is an empty fault plan")
    specs: list[FaultSpec] = []
    seen: set[tuple[str, str]] = set()
    for token in tokens:
        if not token:
            raise FaultSpecError(text, token,
                                 "is an empty token between commas")
        target, at, body = token.rpartition("@")
        if at and not target:
            raise FaultSpecError(text, token,
                                 "has an empty server id before '@'")
        parts = body.rsplit(":", 2)
        if len(parts) < 2:
            raise FaultSpecError(
                text, token,
                "does not have the shape [TARGET@]SITE:IDX[:ACTION]")
        try:
            index = int(parts[1])
        except ValueError:
            raise FaultSpecError(
                text, parts[1], "is not an integer invocation index"
            ) from None
        spec = FaultSpec(parts[0], index, "".join(parts[2:]), target)
        if (target, spec.point) in seen:
            raise FaultSpecError(
                text, f"{target}@{spec.point}" if target else spec.point,
                "is armed twice in one plan")
        seen.add((target, spec.point))
        specs.append(spec)
    return tuple(specs)


def plan_text(specs) -> str:
    """The plan string that :func:`parse_plan` reads back as ``specs``."""
    return ",".join(spec.spec for spec in specs)


def by_target(specs, default: str) -> dict[str, tuple[FaultSpec, ...]]:
    """Group ``specs`` by the server they are routed to (``default``
    for specs naming none), servers in name order."""
    routed: dict[str, tuple[FaultSpec, ...]] = {}
    for spec in specs:
        sid = spec.target or default
        routed[sid] = routed.get(sid, ()) + (spec,)
    return dict(sorted(routed.items()))


class PointCounter:
    """Per-site invocation counts, the point trace, the armed lookup.

    With no specs it is a pure recorder: every point reached is
    appended to :attr:`trace` (and to ``trace_path``, line-buffered so
    the trace survives the death of the process), which is how a sweep
    enumerates a workload's crash points.  ``family`` is the injector's
    own; arming a spec of another family, or a bare point, is an error.
    """

    def __init__(self, family: str, specs=(), *,
                 trace_path: str | Path | None = None):
        self.specs = tuple(specs)
        for spec in self.specs:
            if spec.family != family:
                raise FaultSpecError(spec.spec, spec.site,
                                     f"is not a {family} fault site")
            if not spec.action:
                raise FaultSpecError(spec.spec, spec.spec,
                                     "names a point but no action")
        self.counts: dict[str, int] = {}
        self.trace: list[str] = []
        self._trace_file = None
        if trace_path is not None:
            self._trace_file = open(trace_path, "a", buffering=1)

    def hit(self, site: str) -> FaultSpec | None:
        """Count one invocation of ``site``; return the spec armed
        there, if any."""
        index = self.counts.get(site, 0)
        self.counts[site] = index + 1
        point = f"{site}:{index}"
        self.trace.append(point)
        if self._trace_file is not None:
            self._trace_file.write(point + "\n")
        for spec in self.specs:
            if spec.site == site and spec.index == index:
                return spec
        return None

    def close(self) -> None:
        if self._trace_file is not None and not self._trace_file.closed:
            self._trace_file.close()


def trace_points(trace) -> tuple[FaultSpec, ...]:
    """A recorder's ``site:index`` trace as bare points, in order."""
    trace = list(trace)
    return parse_plan(",".join(trace)) if trace else ()


def read_trace(path: str | Path) -> tuple[FaultSpec, ...]:
    """The bare points a ``trace_path`` recorder wrote, in order."""
    path = Path(path)
    return trace_points(path.read_text().split() if path.exists() else ())
