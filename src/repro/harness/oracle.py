"""The paper's client-visible promises, journaled once and checked once.

A :class:`History` is what one client stream's generations did and
were told, in order — every ``initialize()``/``takeover()`` that drew
an epoch, every write intent and the LSN it was assigned, every force
ack, every truncation request and its ack, and every *observation*: a
§5.4 restart's read-back of the whole log.  It is kept in memory or
appended as JSON lines to a file, one event per line::

    {"op": "epoch", "epoch": 3}                 a generation drew epoch 3
    {"op": "intent", "data": "<hex>"}           about to write (no promise)
    {"op": "lsn", "lsn": 5, "data": "<hex>"}    the write was assigned LSN 5
    {"op": "ack", "high": 5}                    a force acked through LSN 5
    {"op": "trunc-req", "low": 4}               about to truncate below 4
    {"op": "trunc-ack", "low": 4}               the truncation was acked
    {"op": "observe", "read": {...}, "scan": {...}}

An observation maps each LSN (as a string) to the hex payload of a
present record, ``false`` for a not-present (guard) record, or ``null``
for one that could not be read — ``read`` by point reads of every LSN
through ``end_of_log()``, ``scan`` by a forward ``read_forward`` walk.

An intent is journaled *before* its call (a record can reach a server
even if the call never returns) and a promise only *after* the call
returned (an interrupted call carries none), so a history that a
killed process leaves behind never holds a promise nobody made.

:func:`check` is a pure function of a history.  It checks every
observation against the history before it and names the promise that
broke — *recoverability*, not one byte-exact history: an unacked write
or an unacked truncation may or may not have landed.

* ``epoch-monotone`` — every generation draws an epoch above every
  epoch drawn before it (Appendix I);
* ``acked-durable`` — every LSN a generation's force acked reads back
  with its exact payload, unless a truncation was requested above it
  (§3.1);
* ``no-fabrication`` — every present record holds the payload written
  at its LSN, or, at an LSN no write returned, one that was attempted
  (§3.1.2, §5.4);
* ``scan-complete`` — the forward walk returns every point-readable
  LSN with the same presence and payload;
* ``live`` — the observing generation wrote and acked a transaction of
  its own after the restart;
* ``idempotent`` — restarting again, with no truncation in between,
  reads every LSN the previous observation read the same way.

:func:`acked_on_n` checks one more promise, against what each server
holds rather than against an observation:

* ``acked-on-N`` — every LSN a force acked, unless a truncation was
  requested above it, is held with its acked payload by at least ``N``
  servers, each server's holdings read from that server alone (§3.1:
  an acknowledged record is on ``N`` servers).  One surviving copy
  satisfies ``acked-durable``; this rule counts them.

:func:`acked_durable` and :func:`no_fabrication` are the two rules as
functions of plain mappings, so the storage phase of the crash sweep
states them over ``(client, lsn)`` keys with the same code.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Collection, Mapping
from pathlib import Path

from ..core.errors import LogError, RecordNotPresent


class History:
    """One client stream's client-visible events, in order."""

    def __init__(self, path: Path | str | None = None):
        self.events: list[dict] = []
        # Line-buffered: a SIGKILL loses at most the line being written.
        self._file = open(path, "a", buffering=1) if path else None

    @classmethod
    def load(cls, *paths: Path) -> "History":
        """The histories journaled to ``paths``, concatenated in order.

        A missing file is an empty history (its process died before it
        wrote anything), and a final line without its newline was never
        journaled.
        """
        history = cls()
        for path in map(Path, paths):
            if path.exists():
                history.events += [
                    json.loads(line) for line in
                    path.read_text().splitlines(keepends=True)
                    if line.endswith("\n")]
        return history

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def add(self, op: str, **fields) -> None:
        event = {"op": op, **fields}
        self.events.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event) + "\n")

    def epoch(self, log) -> None:
        """``log`` finished ``initialize()`` or ``takeover()``."""
        self.add("epoch", epoch=log.current_epoch)

    async def write(self, log, data: bytes) -> int:
        self.add("intent", data=data.hex())
        lsn = await log.write(data)
        self.add("lsn", lsn=lsn, data=data.hex())
        return lsn

    async def force(self, log) -> int:
        high = await log.force()
        self.add("ack", high=high)
        return high

    async def truncate(self, log, low: int) -> None:
        self.add("trunc-req", low=low)
        await log.truncate(low)
        self.add("trunc-ack", low=low)


async def observe(log, history: History) -> None:
    """Observe a freshly restarted ``log`` into ``history``.

    The observing generation first commits a transaction of its own
    (the ``live`` promise), then reads every LSN through
    ``end_of_log()`` by point reads and by one forward walk.  Raises
    the :class:`LogError` of a log that cannot do that.
    """
    for i in range(2):
        await history.write(
            log, f"post.{log.client_id}.{log.current_epoch}.{i}".encode())
    await history.force(log)
    end = log.end_of_log()
    read: dict[str, str | bool | None] = {}
    for lsn in range(1, end + 1):
        try:
            read[str(lsn)] = (await log.read(lsn)).data.hex()
        except RecordNotPresent:
            read[str(lsn)] = False
        except LogError:
            read[str(lsn)] = None
    scan: dict[str, str | bool] = {}
    lsn = 1
    while lsn <= end:
        try:
            records = await log.read_forward(lsn)
        except LogError:
            lsn += 1   # nobody serves it: point reads say whether it counts
            continue
        for record in records:
            scan[str(record.lsn)] = record.present and record.data.hex()
        lsn = records[-1].lsn + 1
    history.add("observe", read=read, scan=scan)


# -- the rules ---------------------------------------------------------------


def _name(key) -> str:
    return "/".join(map(str, key)) if isinstance(key, tuple) \
        else f"lsn {key}"


def acked_durable(acked: Mapping, observed: Mapping,
                  rewrites: Callable[[object], Collection] = lambda key: ()
                  ) -> list[str]:
    """Every acked key is observed with its acked value — or with one of
    its ``rewrites``: a later unacked write of the key, which may have
    landed."""
    errors = []
    for key, want in sorted(acked.items()):
        got = observed.get(key)
        if got == want or got in rewrites(key):
            continue
        errors.append(f"acked-durable: acked {_name(key)} lost"
                      if got is None or got is False else
                      f"acked-durable: acked {_name(key)} holds another "
                      f"value")
    return errors


def no_fabrication(observed: Mapping,
                   allowed: Callable[[object], Collection]) -> list[str]:
    """Every observed value is one ``allowed`` for its key."""
    return [f"no-fabrication: {_name(key)} holds a value never written "
            f"there" for key, got in sorted(observed.items())
            if got not in allowed(key)]


def acked_on_n(history: History, holdings: Mapping[str, Mapping],
               copies: int) -> list[str]:
    """``acked-on-N``: the acked LSNs of ``history`` at or above its
    truncation floor that fewer than ``copies`` servers hold with their
    acked payload.  ``holdings`` maps each server id to what that
    server alone holds of the stream: LSN → hex payload, or ``False``
    for a not-present record."""
    mine: dict[int, str] = {}
    acked: dict[int, str] = {}
    floor = 0
    for event in history.events:
        op = event["op"]
        if op == "epoch":
            mine = {}
        elif op == "lsn":
            mine[event["lsn"]] = event["data"]
        elif op == "ack":
            acked.update((lsn, data) for lsn, data in mine.items()
                         if lsn <= event["high"])
        elif op in ("trunc-req", "trunc-ack"):
            floor = max(floor, event["low"])
    errors = []
    for lsn, want in sorted(acked.items()):
        holders = sorted(sid for sid, held in holdings.items()
                         if held.get(lsn) == want)
        if lsn >= floor and len(holders) < copies:
            errors.append(f"acked-on-N: acked lsn {lsn} is held by "
                          f"{len(holders)} of {copies} servers "
                          f"({', '.join(holders) or 'none'})")
    return errors


def _state(value) -> str:
    if value is None or value is False:
        return "unreadable" if value is None else "not present"
    return f"present ({len(value) // 2} bytes)"


def _observation(event: dict) -> tuple[dict, dict]:
    return tuple({int(lsn): value for lsn, value in event[part].items()}
                 for part in ("read", "scan"))


def check(history: History) -> list[str]:
    """Every broken promise of ``history``, each named; ``[]`` if none."""
    errors: list[str] = []
    top_epoch = 0
    intents: set[str] = set()
    assigned: dict[int, str] = {}   # lsn → the latest write assigned it
    mine: dict[int, str] = {}       # the same, this generation's only
    acked: dict[int, str] = {}      # lsn → the payload an ack promised
    mine_acked = False
    floor = 0                       # highest truncation requested
    previous: dict[int, object] | None = None
    for event in history.events:
        op = event["op"]
        if op == "epoch":
            if event["epoch"] <= top_epoch:
                errors.append(f"epoch-monotone: a generation drew epoch "
                              f"{event['epoch']} after epoch {top_epoch}")
            top_epoch = max(top_epoch, event["epoch"])
            mine, mine_acked = {}, False
        elif op == "intent":
            intents.add(event["data"])
        elif op == "lsn":
            assigned[event["lsn"]] = mine[event["lsn"]] = event["data"]
        elif op == "ack":
            covered = {lsn: data for lsn, data in mine.items()
                       if lsn <= event["high"]}
            acked.update(covered)
            mine_acked |= bool(covered)
        elif op in ("trunc-req", "trunc-ack"):
            floor = max(floor, event["low"])
            previous = None
        elif op == "observe":
            read, scan = _observation(event)
            errors += acked_durable(
                {lsn: data for lsn, data in acked.items() if lsn >= floor},
                read)
            errors += no_fabrication(
                {lsn: got for lsn, got in read.items()
                 if isinstance(got, str)},
                lambda lsn: ((assigned[lsn],) if lsn in assigned
                             else intents))
            for lsn, got in sorted(read.items()):
                if got is not None and scan.get(lsn) != got:
                    errors.append(
                        f"scan-complete: read_forward "
                        f"{'skipped' if lsn not in scan else 'differs at'}"
                        f" point-readable lsn {lsn}")
            if not mine_acked:
                errors.append("live: the observing generation acked no "
                              "write of its own")
            for lsn, got in sorted((previous or {}).items()):
                if read.get(lsn) != got:
                    errors.append(f"idempotent: lsn {lsn} was "
                                  f"{_state(got)}, then "
                                  f"{_state(read.get(lsn))}")
            previous = read
        else:
            raise ValueError(f"unknown history event {event!r}")
    return errors
