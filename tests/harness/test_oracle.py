"""The one checker of the paper's client-visible promises.

:func:`~repro.harness.oracle.check` is a pure function of a
:class:`~repro.harness.oracle.History`, so these tests hand it
histories and need no daemon: one honest history that passes, and for
each named promise one doctored history that it flags by name.
"""

from __future__ import annotations

import asyncio

from repro.harness.oracle import History, check


def _history(*events: tuple[str, dict]) -> History:
    history = History()
    for op, fields in events:
        history.add(op, **fields)
    return history


def _write(lsn: int, data: str) -> list[tuple[str, dict]]:
    return [("intent", {"data": data}), ("lsn", {"lsn": lsn, "data": data})]


def _observer(epoch: int, post: dict[int, str], read: dict[int, object],
              scan: dict[int, object] | None = None) -> list:
    """A restart at ``epoch`` that commits ``post`` and reads ``read``
    (the forward walk agrees with every point read unless ``scan``)."""
    events = [("epoch", {"epoch": epoch})]
    for lsn, data in post.items():
        events += _write(lsn, data)
    if post:
        events.append(("ack", {"high": max(post)}))
    read = {**read, **post}
    if scan is None:
        scan = {lsn: got for lsn, got in read.items() if got is not None}
    events.append(("observe", {
        "read": {str(lsn): got for lsn, got in read.items()},
        "scan": {str(lsn): got for lsn, got in scan.items()}}))
    return events


#: a generation at epoch 1 writes LSNs 1–3 and acks them, asks for a
#: truncation below 2, and dies mid-write of an unassigned "dd".
_RUN = [("epoch", {"epoch": 1}), *_write(1, "aa"), *_write(2, "bb"),
        *_write(3, "cc"), ("ack", {"high": 3}),
        ("trunc-req", {"low": 2}), ("trunc-ack", {"low": 2}),
        ("intent", {"data": "dd"})]
#: what a restart legally reads: LSN 1 truncated away, the unacked
#: "dd" landed at LSN 4 and was recovered, a guard at LSN 5.
_READ = {1: None, 2: "bb", 3: "cc", 4: "dd", 5: False}


def _promises(history: History) -> list[str]:
    return [error.partition(":")[0] for error in check(history)]


def test_honest_history_passes():
    """Two restarts: every promise holds, the second restart reads the
    first's post-recovery transaction back, and the unacked "dd" and
    the truncated LSN 1 are both legal."""
    assert check(_history(
        *_RUN,
        *_observer(2, {6: "e1"}, _READ),
        *_observer(3, {7: "e2"}, {**_READ, 6: "e1"}),
    )) == []


def test_a_survivor_below_the_truncation_request_keeps_its_payload():
    """A requested truncation may or may not have been applied: LSN 1
    may survive — with its exact payload only."""
    assert check(_history(*_RUN, *_observer(2, {6: "e1"},
                                            {**_READ, 1: "aa"}))) == []
    assert _promises(_history(*_RUN, *_observer(
        2, {6: "e1"}, {**_READ, 1: "bb"}))) == ["no-fabrication"]


def test_epoch_monotone():
    """The restart drew an epoch no higher than the killed client's."""
    assert _promises(_history(*_RUN, *_observer(1, {6: "e1"}, _READ))) \
        == ["epoch-monotone"]


def test_acked_durable():
    """An ack through LSN 3 promised it; the restart reads a guard."""
    assert _promises(_history(*_RUN, *_observer(
        2, {6: "e1"}, {**_READ, 3: False}))) == ["acked-durable"]


def test_acked_durable_flags_an_ack_for_a_write_never_sent():
    """The restart cannot have what never left the client: an ack the
    history holds for it is flagged as lost."""
    errors = check(_history(*_RUN, *_write(6, "ff"), ("ack", {"high": 6}),
                            *_observer(2, {7: "e1"}, _READ)))
    assert errors == ["acked-durable: acked lsn 6 lost"]


def test_no_fabrication():
    """LSN 4 holds a payload no generation ever meant to write."""
    assert _promises(_history(*_RUN, *_observer(
        2, {6: "e1"}, {**_READ, 4: "99"}))) == ["no-fabrication"]


def test_scan_complete():
    """The forward walk skipped point-readable LSN 3 (PR 22's bug)."""
    read = {**_READ, 6: "e1"}
    scan = {lsn: got for lsn, got in read.items() if lsn != 3 and got}
    scan[5] = False
    assert check(_history(*_RUN, *_observer(2, {6: "e1"}, _READ, scan))) \
        == ["scan-complete: read_forward skipped point-readable lsn 3"]


def test_live():
    """The restart committed no transaction of its own."""
    assert _promises(_history(*_RUN, *_observer(2, {}, _READ))) == ["live"]


def test_idempotent():
    """Restarting again turned the guard at LSN 5 unreadable."""
    assert _promises(_history(
        *_RUN,
        *_observer(2, {6: "e1"}, _READ),
        *_observer(3, {7: "e2"}, {**_READ, 5: None, 6: "e1"}),
    )) == ["idempotent"]


class _Log:
    """A stand-in log: LSNs in call order, and one failing force."""

    current_epoch = 4

    def __init__(self):
        self.lsn = 0

    async def write(self, data: bytes) -> int:
        self.lsn += 1
        return self.lsn

    async def force(self) -> int:
        raise ConnectionError("killed mid-force")


def test_intents_before_the_call_and_promises_only_after_it(tmp_path):
    """The journal a killed force leaves holds its writes but no ack,
    and loads back as the same events."""
    path = tmp_path / "run.journal"
    history = History(path)
    log = _Log()

    async def run():
        history.epoch(log)
        await history.write(log, b"\x01")
        await history.force(log)

    try:
        asyncio.run(run())
    except ConnectionError:
        pass
    history.close()
    assert [event["op"] for event in history.events] \
        == ["epoch", "intent", "lsn"]
    assert History.load(path).events == history.events
