"""Protocol-level crash points for the replicated-log *client*.

:mod:`repro.rt.faultfs` kills a server at an exact storage I/O; this
module does the same to :class:`~repro.rt.client.AsyncReplicatedLog`
at an exact **protocol step**.  The client code is instrumented with
:func:`hit` calls naming a site — after a WriteLog batch is streamed,
before/after ForceLog acknowledgments (including after a *partial*
ack), mid write-set switch, and between each step of the Section 5.4
restart procedure (interval-list merge, epoch bump, CopyLog, guard
staging, InstallCopies).  The ``(site, index)`` pair of the
``index``-th invocation of a site is a deterministic crash point, so
``repro crashsweep --phase client`` can kill a real client OS process at
every point a scripted workload reaches and check that fresh clients
restarting per Section 5.4 see exactly the acked records.

With no injector installed (the default), :func:`hit` is a dictionary
miss and a ``None`` check — the production write path stays clean.
A worker process installs one from the environment
(:func:`install_from_env`, variables ``REPRO_CLIENT_FAULT_PLAN`` and
``REPRO_CLIENT_FAULT_TRACE``); plans are client-family specs of the
one grammar in :mod:`repro.rt.faultspec` (``client.<step>:IDX:ACTION``):

``exit``
    print ``REPRO-FAULT-CRASH <site>:<index>`` to stderr and
    ``os._exit`` with :data:`~repro.rt.faultfs.FAULT_EXIT_CODE` — the
    daemon-style injected death the harness recognizes;
``sigkill``
    ``SIGKILL`` our own process — no banner, no atexit, the hardest
    kill the OS offers;
``raise``
    raise :class:`ClientCrash` in-process (unit tests).  Like
    :class:`~repro.rt.faultfs.PowerLoss` it is a ``BaseException`` so
    the client's ``except OSError``/``ServerUnavailable`` routing can
    never swallow an injected death.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

from .faultfs import CRASH_BANNER, FAULT_EXIT_CODE
from .faultspec import FaultSpec, PointCounter, parse_plan

#: Environment variables the worker-process entry points read.
PLAN_ENV = "REPRO_CLIENT_FAULT_PLAN"
TRACE_ENV = "REPRO_CLIENT_FAULT_TRACE"


class ClientCrash(BaseException):
    """The client process died at ``point`` (in-process simulation)."""

    def __init__(self, point: str):
        super().__init__(point)
        self.point = point


class ClientFaultInjector:
    """Count protocol-site invocations; kill the armed one.

    With no plans this is a pure recorder: every point reached is
    appended to :attr:`trace` (and ``trace_path``, line-buffered, so
    the trace survives the kill), which is how the sweep enumerates a
    workload's client crash points.
    """

    def __init__(self, specs: tuple[FaultSpec, ...] = (), *,
                 trace_path: str | Path | None = None):
        self._points = PointCounter("client", specs, trace_path=trace_path)
        #: every ``site:index`` reached, in order.
        self.trace = self._points.trace
        self.crashes = 0

    def hit(self, site: str) -> None:
        """Record one invocation of ``site``; crash if it is armed."""
        spec = self._points.hit(site)
        if spec is not None:
            self._crash(spec.point, spec.action)

    def _crash(self, point: str, action: str) -> None:
        self.crashes += 1
        if action == "exit":
            print(f"{CRASH_BANNER} {point}", file=sys.stderr, flush=True)
            os._exit(FAULT_EXIT_CODE)
        if action == "sigkill":
            sys.stderr.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        raise ClientCrash(point)

    def close(self) -> None:
        self._points.close()


#: The process-wide injector ``hit`` consults; ``None`` = production.
_injector: ClientFaultInjector | None = None


def install(injector: ClientFaultInjector | None) -> None:
    """Install (or with ``None`` remove) the process-wide injector."""
    global _injector
    _injector = injector


def installed() -> ClientFaultInjector | None:
    return _injector


def install_from_env() -> ClientFaultInjector | None:
    """Install an injector if the fault environment variables are set.

    Returns the injector (so a worker can close its trace file), or
    ``None`` when neither variable is present.  A malformed plan, or
    one naming a storage or network site, raises
    :class:`~repro.rt.faultspec.FaultSpecError` before any workload runs.
    """
    plan_s = os.environ.get(PLAN_ENV)
    trace = os.environ.get(TRACE_ENV)
    if not plan_s and not trace:
        return None
    injector = ClientFaultInjector(parse_plan(plan_s) if plan_s else (),
                                   trace_path=trace)
    install(injector)
    return injector


def hit(site: str) -> None:
    """The instrumentation hook :mod:`repro.rt.client` calls."""
    if _injector is not None:
        _injector.hit(site)
