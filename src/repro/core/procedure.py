"""Sans-IO procedures: the client's call sequences, stated once.

Client restart (Section 3.1.2), NewID (Appendix I), the takeover fence,
"fetch the winning copy of LSN x" and the repair of a lost log copy
(Section 5.3) are each *a sequence of synchronous calls to named
servers with a quorum test at the end*.  They are written as generator
functions (in :mod:`repro.core.recovery`, :mod:`repro.core.epoch` and
:mod:`repro.core.repair`) that perform no I/O themselves:

* a procedure ``yield``s a :class:`Call` — one request to one named
  server — and receives that server's answer as a plain value (see the
  table below), or has :class:`~repro.core.errors.ServerUnavailable`
  thrown in at the ``yield`` when the server cannot serve it;
* it ``yield``s a :class:`Step` when it passes a named point between
  calls (the asyncio driver turns these into client crash points); and
* it ``return``s its result, or raises a
  :class:`~repro.core.errors.LogError` when a quorum falls short.

A *driver* owes a procedure exactly that: answer every ``Call`` with
the operation's value or a thrown ``ServerUnavailable``, answer every
``Step`` with ``None``, and pass any other exception a server's answer
maps to (a fence refusal, say) in at the ``yield`` too — procedures
let what they do not handle propagate.  Procedures read no clock and
choose no server order: which servers to ask, and in what order, are
arguments, because the right order is the driver's knowledge (a
placement ring, an assignment strategy, a dict's insertion order).

======================  ===========================  ==================
operation               ``args``                     value sent back
======================  ===========================  ==================
:data:`INTERVAL_LIST`   ``()``                       tuple of Interval
:data:`READ`            ``(lsn,)``                   tuple of
                                                     StoredRecord
:data:`COPY`            ``(epoch, records)``         :data:`ACK`
:data:`INSTALL`         ``(epoch,)``                 :data:`ACK`
:data:`GEN_READ`        ``()``                       int
:data:`GEN_WRITE`       ``(value,)``                 :data:`ACK`
:data:`FENCE`           ``(epoch,)``                 :data:`ACK`
======================  ===========================  ==================

:data:`READ` asks for the record stored under ``lsn``; a network driver
may send back that record's neighbours too, and the procedure picks
its own out of the tuple.

Three drivers exist, and nothing beside them: :func:`run` below
(direct function calls — on in-process stores through
:func:`repro.core.store.store_performer`), ``SimLogClient._drive``
(simulated RPCs) and ``AsyncReplicatedLog._drive`` (TCP).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, NamedTuple

from .errors import ServerUnavailable

INTERVAL_LIST = "interval_list"
READ = "read"
COPY = "copy"
INSTALL = "install"
GEN_READ = "gen_read"
GEN_WRITE = "gen_write"
FENCE = "fence"

#: The value of an operation that returns nothing but success.
ACK = "ack"


class Call(NamedTuple):
    """One synchronous request to one named server."""

    server_id: str
    op: str
    args: tuple = ()


class Step(NamedTuple):
    """A named point between calls; carries no request."""

    name: str


Procedure = Generator["Call | Step", Any, Any]


def run(procedure: Procedure, perform: Callable[[Call], Any]) -> Any:
    """Drive ``procedure`` with plain function calls; return its result.

    ``perform(call)`` returns the operation's value or raises
    :class:`ServerUnavailable`, which is thrown back into the
    procedure.  Steps are passed over.
    """
    try:
        request = next(procedure)
        while True:
            if type(request) is Step:
                request = procedure.send(None)
                continue
            try:
                value = perform(request)
            except ServerUnavailable as exc:
                request = procedure.throw(exc)
            else:
                request = procedure.send(value)
    except StopIteration as stop:
        return stop.value
