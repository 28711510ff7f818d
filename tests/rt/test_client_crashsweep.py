"""Client-phase crash sweep: pinned regressions and harness units.

The bug pinned here was found by inspection while instrumenting the
client for the sweep and is reachable at crash point
``client.force.ack:0`` (killed after a *partial* force ack): reply
matching in :class:`~repro.rt.client.ServerConnection` is positional,
so a future registered before a send that then *fails* — or left over
from a torn-down connection — becomes a stale entry that swallows the
first reply after a reconnect, shifting every later reply by one.  The
fix is twofold: futures join ``_pending``/``_force_waiters`` only
after the send is accepted, and ``connect()`` fails any leftover
routing state before the fresh stream starts.

The end-to-end smoke (one real kill/restart case through
:func:`run_crashsweep`) runs the whole machinery: a worker process
killed at the partial-ack point, two §5.4 restarts by fresh clients,
and :func:`~repro.harness.oracle.check` over the killed worker's
journal and both observations.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ServerUnavailable
from repro.harness.crashsweep import _CLIENT_COMBINED, SweepConfig, \
    client_phase, run_crashsweep
from repro.harness.oracle import History, check
from repro.net.messages import IntervalListCall, ForceLogMsg
from repro.rt.client import ServerConnection
from repro.rt.faultspec import parse_plan, plan_text


# -- the waiter-leak regression (crash point client.force.ack:0) ------


def test_failed_call_send_leaves_no_stale_pending_future():
    """A call whose send fails must not register a reply waiter.

    Pre-fix, ``call()`` appended its future to ``_pending`` *before*
    sending; a dead connection then raised out of ``send()`` with the
    future still enqueued, where it would positionally swallow the
    first reply after a reconnect.
    """

    async def main():
        conn = ServerConnection("s1", "127.0.0.1", 1, timeout=0.5,
                                client_id="c1")
        with pytest.raises(ServerUnavailable):
            await conn.call(IntervalListCall("c1"))
        assert conn._pending == []

    asyncio.run(main())


def test_failed_force_send_leaves_no_stale_waiter():
    """Same leak on the force path: a failed ForceLog send must not
    leave a ``(high_lsn, future)`` entry that a later connection's ack
    would resolve as if this force had been made durable."""

    async def main():
        conn = ServerConnection("s1", "127.0.0.1", 1, timeout=0.5,
                                client_id="c1")
        msg = ForceLogMsg.trusted("c1", 1, ())
        with pytest.raises(ServerUnavailable):
            await conn.force(msg)
        assert conn._force_waiters == []

    asyncio.run(main())


def test_connect_fails_stale_routing_state():
    """A fresh connection must never inherit reply-routing futures.

    Any future still in the routing lists when a new stream comes up
    (however it got there) belongs to a connection that can no longer
    answer it; ``connect()`` must fail it immediately rather than let
    the new stream's first reply resolve it out of position.
    """

    async def main():
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            conn = ServerConnection("s1", "127.0.0.1", port,
                                    timeout=1.0, client_id="c1")
            loop = asyncio.get_running_loop()
            stale_call = loop.create_future()
            stale_force = loop.create_future()
            conn._pending.append(stale_call)
            conn._force_waiters.append((7, stale_force))
            await conn.connect()
            assert conn._pending == [] and conn._force_waiters == []
            assert isinstance(stale_call.exception(), ServerUnavailable)
            assert isinstance(stale_force.exception(), ServerUnavailable)
            await conn.close()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(main())


# -- a killed run and two restarts, journaled, as one history --------


def _journal(tmp_path, name, events):
    """Write ``events`` as one worker process would journal them."""
    history = History(tmp_path / name)
    for op, fields in events:
        history.add(op, **fields)
    history.close()
    return tmp_path / name


def _run_journal(tmp_path, *extra):
    """The killed worker: epoch 1, LSNs 5 and 6 written and acked."""
    return _journal(tmp_path, "run.journal", [
        ("epoch", {"epoch": 1}),
        ("intent", {"data": b"r1".hex()}),
        ("lsn", {"lsn": 5, "data": b"r1".hex()}),
        ("intent", {"data": b"r2".hex()}),
        ("lsn", {"lsn": 6, "data": b"r2".hex()}),
        ("ack", {"high": 6}),
        *extra])


def _recovered(tmp_path, name, epoch, post_lsn, read):
    """A recovery worker: restart at ``epoch``, commit one post record
    at ``post_lsn``, then observe ``read`` (hex payload, False = guard,
    None = unreadable) — the forward scan agreeing."""
    post = f"p{epoch}".encode().hex()
    read = {**read, post_lsn: post}
    observed = {str(lsn): got for lsn, got in read.items()}
    return _journal(tmp_path, name, [
        ("epoch", {"epoch": epoch}),
        ("intent", {"data": post}),
        ("lsn", {"lsn": post_lsn, "data": post}),
        ("ack", {"high": post_lsn}),
        ("observe", {"read": observed, "scan": {
            lsn: got for lsn, got in observed.items() if got is not None}}),
    ])


_R1, _R2, _P2 = b"r1".hex(), b"r2".hex(), b"p2".hex()


def test_parse_worker_journal(tmp_path):
    """A worker's journal loads back event for event; a last line the
    kill cut before its newline was never journaled."""
    path = _run_journal(tmp_path)
    with open(path, "a") as torn:
        torn.write('{"op": "ack", "hi')
    events = History.load(path).events
    assert [event["op"] for event in events] \
        == ["epoch", "intent", "lsn", "intent", "lsn", "ack"]
    assert events[2] == {"op": "lsn", "lsn": 5, "data": _R1}


def test_parse_worker_journal_missing_file(tmp_path):
    assert History.load(tmp_path / "never-written.journal").events == []


def test_client_verify_accepts_clean_recovery(tmp_path):
    run = _run_journal(tmp_path)
    rec1 = _recovered(tmp_path, "recover1.journal", 2, 7,
                      {5: _R1, 6: _R2})
    rec2 = _recovered(tmp_path, "recover2.journal", 3, 8,
                      {5: _R1, 6: _R2, 7: _P2})
    assert check(History.load(run, rec1, rec2)) == []


def test_client_verify_flags_lost_ack_and_fabrication(tmp_path):
    run = _run_journal(tmp_path)
    rec1 = _recovered(tmp_path, "recover1.journal", 2, 7,
                      {5: _R1, 6: None})
    rec2 = _recovered(tmp_path, "recover2.journal", 3, 10,
                      {5: _R1, 6: None, 7: _P2, 9: b"forged".hex()})
    errors = check(History.load(run, rec1, rec2))
    assert "acked-durable: acked lsn 6 lost" in errors
    assert "no-fabrication: lsn 9 holds a value never written there" \
        in errors


def test_client_verify_flags_non_monotone_epoch_and_divergence(tmp_path):
    run = _run_journal(tmp_path)
    rec1 = _recovered(tmp_path, "recover1.journal", 2, 8,
                      {5: _R1, 6: _R2, 7: False})
    rec2 = _recovered(tmp_path, "recover2.journal", 2, 9,
                      {5: _R1, 6: _R2, 7: None, 8: b"p2".hex()})
    errors = check(History.load(run, rec1, rec2))
    assert "epoch-monotone: a generation drew epoch 2 after epoch 2" \
        in errors
    assert any(e.startswith("idempotent: lsn 7 ") for e in errors)


def test_client_verify_requested_truncation_may_or_may_not_apply(tmp_path):
    """A kill between the truncation request and its ack makes both
    outcomes legal: LSN 5 may be reclaimed or survive with its exact
    payload — but never survive with a different one."""
    run = _run_journal(tmp_path, ("trunc-req", {"low": 6}))
    for n, survivor in enumerate((None, _R1)):
        rec1 = _recovered(tmp_path, f"gone{n}.1", 2, 7,
                          {5: survivor, 6: _R2})
        rec2 = _recovered(tmp_path, f"gone{n}.2", 3, 8,
                          {5: survivor, 6: _R2, 7: _P2})
        assert check(History.load(run, rec1, rec2)) == []
    forged = _recovered(tmp_path, "forged.1", 2, 7,
                        {5: b"not-r1".hex(), 6: _R2})
    assert check(History.load(run, forged)) \
        == ["no-fabrication: lsn 5 holds a value never written there"]


# -- the end-to-end smoke ---------------------------------------------


def test_client_case_partial_ack_kill_and_recovery(tmp_path):
    """One real case at the pinned point: the worker process is killed
    right after the first partial force ack (``client.force.ack:0``),
    and two successive §5.4 restarts by fresh clients must see a
    consistent, fabrication-free log."""
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="client.force.ack:0:exit",
    ))
    (case,) = report.cases("client")
    assert case.spec == "client.force.ack:0:exit"
    assert case.hit, "the workload never reached the armed point"
    assert case.ok, case.errors


@pytest.mark.parametrize("plan", _CLIENT_COMBINED, ids=plan_text)
def test_every_combined_client_case_fires_both_faults(tmp_path, plan):
    """Each full-mode combined case fires its client kill and its
    storage fault, and the restarts after it keep every promise."""
    case = client_phase(tmp_path).run_case(0, plan)
    assert case.hit, plan_text(plan)
    assert case.ok, case.errors


def test_combined_client_case_needs_its_daemon_fault_to_fire(tmp_path):
    """The client kill fires; the storage fault on s1 sits at an index
    the workload never reaches, so the case did not test it."""
    case = client_phase(tmp_path).run_case(0, parse_plan(
        "client.force.ack:0:exit,s1@log.write.record:9999:power-loss"))
    assert not case.hit
    assert case.ok, case.errors
