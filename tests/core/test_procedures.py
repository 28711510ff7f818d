"""The sans-IO procedures under a scripted driver.

A script maps ``(server_id, op)`` to the value that server answers (or
an exception instance to throw in), so each rule a procedure applies to
an answer can be pinned without any server behind it.
"""

import pathlib
import re

import pytest

import repro.core
from repro.core import NotEnoughServers, ServerUnavailable, StoredRecord
from repro.core.epoch import new_id
from repro.core.intervals import MergedEntry
from repro.core.procedure import ACK, GEN_READ, GEN_WRITE, READ, Call, run
from repro.core.recovery import fetch_record


def scripted(script, calls=None):
    """A ``perform`` answering from ``script``; unknown calls are down."""

    def perform(call: Call):
        if calls is not None:
            calls.append(call)
        answer = script.get((call.server_id, call.op),
                            ServerUnavailable(call.server_id))
        if isinstance(answer, Exception):
            raise answer
        return answer

    return perform


def rec(lsn, epoch, data=b"x"):
    return StoredRecord(lsn=lsn, epoch=epoch, data=data)


class TestFetchRecord:
    ENTRY = MergedEntry(lsn=7, epoch=3, servers=("a", "b"))

    def test_stale_lower_epoch_copy_is_passed_over(self):
        calls = []
        got = run(fetch_record(self.ENTRY), scripted({
            ("a", READ): (rec(7, 2, b"stale"),),
            ("b", READ): (rec(7, 3, b"winner"),),
        }, calls))
        assert got.data == b"winner"
        assert [c.server_id for c in calls] == ["a", "b"]

    def test_all_holders_stale_is_a_shortfall(self):
        with pytest.raises(NotEnoughServers):
            run(fetch_record(self.ENTRY), scripted({
                ("a", READ): (rec(7, 2),),
                ("b", READ): (rec(7, 1),),
            }))

    def test_first_good_holder_ends_the_search(self):
        calls = []
        run(fetch_record(self.ENTRY), scripted({
            ("a", READ): (rec(6, 3), rec(7, 3)),
            ("b", READ): (rec(7, 3),),
        }, calls))
        assert [c.server_id for c in calls] == ["a"]

    def test_unavailable_and_mistyped_answers_are_skipped(self):
        got = run(fetch_record(MergedEntry(7, 3, ("a", "b", "c"))), scripted({
            ("b", READ): ACK,
            ("c", READ): (rec(7, 4),),
        }))
        assert got.epoch == 4


class TestNewId:
    REPS = ("a", "b", "c")

    def test_reads_all_then_writes_a_majority(self):
        calls = []
        script = {(r, GEN_READ): v for r, v in zip(self.REPS, (4, 9, 2))}
        script.update({(r, GEN_WRITE): ACK for r in self.REPS})
        assert run(new_id(self.REPS), scripted(script, calls)) == 10
        assert [(c.server_id, c.op) for c in calls] == [
            ("a", GEN_READ), ("b", GEN_READ), ("c", GEN_READ),
            ("a", GEN_WRITE), ("b", GEN_WRITE),
        ]
        assert calls[-1].args == (10,)

    def test_non_ack_write_reply_does_not_count(self):
        script = {(r, GEN_READ): 0 for r in self.REPS}
        script.update({("a", GEN_WRITE): ACK, ("b", GEN_WRITE): 1,
                       ("c", GEN_WRITE): None})
        with pytest.raises(NotEnoughServers, match="write quorum"):
            run(new_id(self.REPS), scripted(script))

    def test_non_ack_write_reply_is_made_up_elsewhere(self):
        script = {(r, GEN_READ): 0 for r in self.REPS}
        script.update({("a", GEN_WRITE): "nope", ("b", GEN_WRITE): ACK,
                       ("c", GEN_WRITE): ACK})
        assert run(new_id(self.REPS), scripted(script)) == 1

    def test_non_integer_read_reply_does_not_count(self):
        script = {("a", GEN_READ): 5, ("b", GEN_READ): ACK}
        with pytest.raises(NotEnoughServers, match="read quorum"):
            run(new_id(self.REPS), scripted(script))

    def test_only_read_representatives_are_written(self):
        calls = []
        script = {("b", GEN_READ): 1, ("c", GEN_READ): 1,
                  **{(r, GEN_WRITE): ACK for r in self.REPS}}
        run(new_id(self.REPS), scripted(script, calls))
        assert "a" not in [c.server_id for c in calls if c.op == GEN_WRITE]


def test_core_imports_no_io_layer():
    """``repro.core`` stays sans-IO: no transport, simulator or event loop."""
    banned = re.compile(
        r"^\s*(?:from|import)\s+"
        r"(?:asyncio|repro\.(?:net|sim|rt)|\.\.(?:net|sim|rt))\b",
        re.MULTILINE,
    )
    offenders = [
        f"{path.name}: {match.group(0).strip()}"
        for path in sorted(pathlib.Path(repro.core.__file__).parent.glob("*.py"))
        for match in banned.finditer(path.read_text())
    ]
    assert offenders == []
