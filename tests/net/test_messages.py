"""Tests for the Figure 4-1 message set."""

import pytest

from repro.core.intervals import Interval
from repro.core.records import StoredRecord
from repro.net.messages import (
    AckReply,
    CopyLogCall,
    ErrorReply,
    ForceLogMsg,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    WriteLogMsg,
)


def records(lsns, epoch=1, size=10):
    return tuple(
        StoredRecord(lsn=l, epoch=epoch, data=b"d" * size) for l in lsns
    )


class TestWriteMessages:
    def test_bounds(self):
        msg = WriteLogMsg(client_id="c", epoch=1, records=records([3, 4, 5]))
        assert msg.low_lsn == 3
        assert msg.high_lsn == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WriteLogMsg(client_id="c", epoch=1, records=())

    def test_non_consecutive_rejected(self):
        with pytest.raises(ValueError):
            WriteLogMsg(client_id="c", epoch=1, records=records([1, 3]))

    def test_epoch_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WriteLogMsg(client_id="c", epoch=2, records=records([1, 2]))

    def test_force_is_a_write(self):
        msg = ForceLogMsg(client_id="c", epoch=1, records=records([1]))
        assert isinstance(msg, WriteLogMsg)

    def test_wire_size_grows_with_records(self):
        one = WriteLogMsg(client_id="c", epoch=1, records=records([1]))
        three = WriteLogMsg(client_id="c", epoch=1, records=records([1, 2, 3]))
        assert three.wire_size > one.wire_size


class TestServerMessages:
    def test_new_high_lsn(self):
        msg = NewHighLSNMsg(client_id="c", new_high_lsn=42)
        assert msg.new_high_lsn == 42

    def test_missing_interval(self):
        msg = MissingIntervalMsg(client_id="c", lo=5, hi=9)
        assert (msg.lo, msg.hi) == (5, 9)

    def test_new_interval(self):
        msg = NewIntervalMsg(client_id="c", epoch=2, starting_lsn=10)
        assert msg.starting_lsn == 10


class TestSyncCalls:
    def test_interval_list_reply_sizes_by_triples(self):
        empty = IntervalListReply(client_id="c", intervals=())
        two = IntervalListReply(
            client_id="c",
            intervals=(Interval(1, 1, 5), Interval(2, 6, 9)),
        )
        assert two.wire_size - empty.wire_size == 24  # 2 × 3 integers

    def test_read_calls_carry_lsn(self):
        assert ReadLogForwardCall(client_id="c", lsn=7).lsn == 7
        assert ReadLogBackwardCall(client_id="c", lsn=7).lsn == 7

    def test_read_reply_may_be_empty(self):
        reply = ReadLogReply(client_id="c")
        assert reply.records == ()

    def test_copy_log_epoch_checked(self):
        with pytest.raises(ValueError):
            CopyLogCall(client_id="c", epoch=5, records=records([1], epoch=4))

    def test_copy_log_non_consecutive_allowed(self):
        # CopyLog rewrites arbitrary LSNs (a copy + a guard may not be
        # adjacent to each other on this server)
        recs = (
            StoredRecord(lsn=1, epoch=2, data=b"a"),
            StoredRecord(lsn=5, epoch=2, present=False),
        )
        call = CopyLogCall(client_id="c", epoch=2, records=recs)
        assert len(call.records) == 2

    def test_install_and_acks(self):
        assert InstallCopiesCall(client_id="c", epoch=3).epoch == 3
        assert AckReply(client_id="c").ok
        assert ErrorReply(client_id="c", reason="bad").reason == "bad"

    def test_interval_list_call(self):
        assert IntervalListCall(client_id="c").client_id == "c"
