"""Replicated increasing unique-identifier generator (Appendix I).

Epoch numbers must be "higher than any other epoch number used during
the previous operation of this client" (Section 3.1.2).  Appendix I
replicates the generator state on ``N`` *generator-state
representatives*, each holding one integer in non-volatile storage.

``NewID`` reads the state from ``⌈(N+1)/2⌉`` representatives, then
writes a value higher than any read to ``⌈N/2⌉`` representatives.  The
read set of any invocation intersects the write set of every earlier
invocation (read + write quorum exceeds N), so identifiers strictly
increase even across client crashes.  A crash between the read and the
write can only *skip* values, never repeat one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import NotEnoughServers, ServerUnavailable
from .procedure import ACK, GEN_READ, GEN_WRITE, Call, Procedure, Step, run


@dataclass(slots=True)
class GeneratorStateRepresentative:
    """One replica of the generator state: an integer in NV storage.

    ``Read`` and ``Write`` are atomic at an individual representative
    (Appendix I).  ``available`` supports the availability experiments;
    the stored value survives unavailability, as NV storage does.
    """

    rep_id: str
    value: int = 0
    available: bool = True
    #: write history, kept so tests can verify the append-only variant
    #: mentioned in the appendix ("append-only storage may be used").
    history: list[int] = field(default_factory=list)

    def read(self) -> int:
        if not self.available:
            raise ServerUnavailable(self.rep_id, "representative is down")
        return self.value

    def write(self, value: int) -> None:
        if not self.available:
            raise ServerUnavailable(self.rep_id, "representative is down")
        # Values written by successive NewIDs are increasing, but a
        # duplicate or delayed message could replay an older value;
        # never move the durable state backwards.
        if value > self.value:
            self.value = value
            self.history.append(value)

    def crash(self) -> None:
        self.available = False

    def restart(self) -> None:
        self.available = True


def read_quorum_size(n_reps: int) -> int:
    """``⌈(N+1)/2⌉`` — representatives a NewID must read."""
    return math.ceil((n_reps + 1) / 2)


def write_quorum_size(n_reps: int) -> int:
    """``⌈N/2⌉`` — representatives a NewID must write."""
    return math.ceil(n_reps / 2)


def new_id(rep_ids: Sequence[str]) -> Procedure:
    """NewID (Appendix I) as a procedure over the named representatives.

    Reads every representative in ``rep_ids`` order, needs
    ``⌈(N+1)/2⌉`` integers back, then writes ``max + 1`` to the ones
    that answered until ``⌈N/2⌉`` acknowledged.  An answer of the wrong
    type counts toward neither quorum.  Raises
    :class:`NotEnoughServers` when either quorum falls short.
    """
    values: list[int] = []
    readable: list[str] = []
    for rep_id in rep_ids:
        try:
            value = yield Call(rep_id, GEN_READ)
        except ServerUnavailable:
            continue
        if isinstance(value, int):
            values.append(value)
            readable.append(rep_id)
    need = read_quorum_size(len(rep_ids))
    if len(values) < need:
        raise NotEnoughServers(
            f"generator read quorum needs {need} representatives, "
            f"only {len(values)} answered"
        )
    yield Step("epoch.read")
    new_value = max(values) + 1
    need = write_quorum_size(len(rep_ids))
    written = 0
    for rep_id in readable:
        if written >= need:
            break
        try:
            reply = yield Call(rep_id, GEN_WRITE, (new_value,))
        except ServerUnavailable:
            continue
        if reply is ACK:
            written += 1
    if written < need:
        raise NotEnoughServers(
            f"generator write quorum needs {need} representatives, "
            f"wrote {written}"
        )
    yield Step("epoch.written")
    return new_value


def issued_by(source) -> Procedure:
    """An in-process epoch source as a procedure that makes no calls.

    Lets :func:`repro.core.recovery.restart` take its NewID step as a
    sub-procedure whether the generator is replicated over the servers
    being driven (:func:`new_id`) or is a local object with a plain
    ``new_id()`` method.
    """
    return source.new_id()
    yield  # unreachable: makes this function a generator


class ReplicatedIdGenerator:
    """The ``NewID`` abstraction of Appendix I.

    Identifiers are integers compared with ``<`` and ``==``.  Only a
    single client process may generate identifiers at one time — the
    same single-client restriction the replicated log itself exploits.
    """

    def __init__(self, representatives: list[GeneratorStateRepresentative]):
        if not representatives:
            raise NotEnoughServers("a generator needs at least one representative")
        self._reps = list(representatives)

    @property
    def representatives(self) -> list[GeneratorStateRepresentative]:
        return list(self._reps)

    @property
    def n_reps(self) -> int:
        return len(self._reps)

    def new_id(self) -> int:
        """Issue the next identifier, strictly above all previous ones.

        Raises :class:`NotEnoughServers` if a read or write quorum of
        representatives cannot be assembled.
        """
        reps = {rep.rep_id: rep for rep in self._reps}

        def perform(call: Call):
            rep = reps[call.server_id]
            if call.op == GEN_READ:
                return rep.read()
            rep.write(*call.args)
            return ACK

        return run(new_id(list(reps)), perform)


def make_generator(n_reps: int, prefix: str = "rep") -> ReplicatedIdGenerator:
    """Convenience constructor: ``n_reps`` fresh representatives."""
    reps = [GeneratorStateRepresentative(f"{prefix}-{i}") for i in range(n_reps)]
    return ReplicatedIdGenerator(reps)


class LocalIdGenerator:
    """A trivial single-node generator for tests and examples.

    Provides the same ``new_id`` interface without replication; the
    direct-mode tests that do not exercise generator availability use
    this to keep scenarios small.
    """

    def __init__(self, start: int = 0):
        self._value = start

    def new_id(self) -> int:
        self._value += 1
        return self._value
