"""Tests for the simulated log-server node."""

import random

import pytest

from repro.core.records import StoredRecord
from repro.net.lan import Lan
from repro.net.messages import (
    AckReply,
    CopyLogCall,
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
from repro.net.rpc import RpcClient, RpcReply
from repro.net.transport import Endpoint
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator


class Harness:
    """A raw protocol client talking to one SimLogServer."""

    def __init__(self, loss_prob=0.0, **server_kw):
        self.sim = Simulator()
        self.lan = Lan(self.sim, loss_prob=loss_prob, rng=random.Random(0))
        self.server = SimLogServer(self.sim, self.lan, "srv", **server_kw)
        self.endpoint = Endpoint(self.sim, self.lan, "cli")
        self.conn = None
        self.rpc = None
        self.acks: list[NewHighLSNMsg] = []
        self.missing: list[MissingIntervalMsg] = []

    def connect(self):
        self.conn = yield from self.endpoint.connect("srv")
        self.rpc = RpcClient(self.sim, self.conn)

        def pump():
            while True:
                message = yield self.conn.inbox.get()
                if isinstance(message, RpcReply):
                    self.rpc.dispatch(message)
                elif isinstance(message, NewHighLSNMsg):
                    self.acks.append(message)
                elif isinstance(message, MissingIntervalMsg):
                    self.missing.append(message)

        self.sim.spawn(pump())

    def records(self, lsns, epoch=1, size=50):
        return tuple(
            StoredRecord(lsn=l, epoch=epoch, data=b"d" * size) for l in lsns
        )

    def run(self, until=30):
        self.sim.run(until=until)


class TestWritesAndAcks:
    def test_force_is_acknowledged(self):
        h = Harness()

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2, 3])))

        h.sim.spawn(main())
        h.run()
        assert [a.new_high_lsn for a in h.acks] == [3]
        assert h.server.store.client_state("c1").high_lsn == 3

    def test_buffered_write_not_acknowledged(self):
        h = Harness()

        def main():
            yield from h.connect()
            yield from h.conn.send(WriteLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))

        h.sim.spawn(main())
        h.run()
        assert h.acks == []
        assert h.server.store.client_state("c1").high_lsn == 2

    def test_cumulative_ack_covers_buffered_prefix(self):
        h = Harness()

        def main():
            yield from h.connect()
            yield from h.conn.send(WriteLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([3])))

        h.sim.spawn(main())
        h.run()
        assert [a.new_high_lsn for a in h.acks] == [3]

    def test_duplicate_force_reacknowledged(self):
        h = Harness()

        def main():
            yield from h.connect()
            msg = ForceLogMsg(client_id="c1", epoch=1,
                              records=h.records([1, 2]))
            yield from h.conn.send(msg)
            yield h.sim.timeout(0.1)
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))

        h.sim.spawn(main())
        h.run()
        assert [a.new_high_lsn for a in h.acks] == [2, 2]
        # no double storage
        assert len(h.server.store.client_state("c1").records) == 2

    def test_gap_triggers_missing_interval(self):
        h = Harness()

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([5, 6])))

        h.sim.spawn(main())
        h.run()
        assert len(h.missing) == 1
        assert (h.missing[0].lo, h.missing[0].hi) == (3, 4)
        # the gapped records were not stored
        assert h.server.store.client_state("c1").high_lsn == 2

    def test_new_interval_then_write_accepted(self):
        h = Harness()

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))
            yield from h.conn.send(NewIntervalMsg(
                client_id="c1", epoch=1, starting_lsn=10))
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([10, 11])))

        h.sim.spawn(main())
        h.run()
        assert h.missing == []
        intervals = h.server.store.client_state("c1").intervals()
        assert [(iv.lo, iv.hi) for iv in intervals] == [(1, 2), (10, 11)]

    def test_overlap_trimmed(self):
        h = Harness()

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2, 3])))
            # retransmit 2..4: only 4 is new
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([2, 3, 4])))

        h.sim.spawn(main())
        h.run()
        assert h.server.store.client_state("c1").high_lsn == 4
        assert len(h.server.store.client_state("c1").records) == 4


class TestSyncCalls:
    def test_interval_list(self):
        h = Harness()
        result = {}

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2, 3])))
            reply = yield from h.rpc.call(IntervalListCall(client_id="c1"))
            result["reply"] = reply

        h.sim.spawn(main())
        h.run()
        reply = result["reply"]
        assert isinstance(reply, IntervalListReply)
        assert [(iv.epoch, iv.lo, iv.hi) for iv in reply.intervals] == [(1, 1, 3)]

    def test_read_forward_fills_packet(self):
        h = Harness()
        result = {}

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records(range(1, 8))))
            reply = yield from h.rpc.call(
                ReadLogForwardCall(client_id="c1", lsn=3))
            result["reply"] = reply

        h.sim.spawn(main())
        h.run()
        lsns = [r.lsn for r in result["reply"].records]
        assert lsns == [3, 4, 5, 6, 7]

    def test_read_backward_returns_ascending_tail(self):
        h = Harness()
        result = {}

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records(range(1, 6))))
            reply = yield from h.rpc.call(
                ReadLogBackwardCall(client_id="c1", lsn=4))
            result["reply"] = reply

        h.sim.spawn(main())
        h.run()
        lsns = [r.lsn for r in result["reply"].records]
        assert lsns == [1, 2, 3, 4]

    def test_read_unknown_returns_empty(self):
        h = Harness()
        result = {}

        def main():
            yield from h.connect()
            reply = yield from h.rpc.call(
                ReadLogForwardCall(client_id="nobody", lsn=1))
            result["reply"] = reply

        h.sim.spawn(main())
        h.run()
        assert isinstance(result["reply"], ReadLogReply)
        assert result["reply"].records == ()

    def test_copy_and_install(self):
        h = Harness()
        result = {}

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))
            copies = (
                StoredRecord(lsn=2, epoch=2, data=b"d" * 50),
                StoredRecord(lsn=3, epoch=2, present=False),
            )
            r1 = yield from h.rpc.call(CopyLogCall(
                client_id="c1", epoch=2, records=copies))
            r2 = yield from h.rpc.call(InstallCopiesCall(
                client_id="c1", epoch=2))
            result["acks"] = (r1, r2)
            # and a write continuing after the install must be accepted
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=2,
                records=(StoredRecord(lsn=4, epoch=2, data=b"x"),)))

        h.sim.spawn(main())
        h.run()
        assert all(isinstance(a, AckReply) for a in result["acks"])
        table = h.server.store.dump_table("c1")
        assert table == [
            (1, 1, "yes"), (2, 1, "yes"),
            (2, 2, "yes"), (3, 2, "no"), (4, 2, "yes"),
        ]


class TestDurability:
    def test_flusher_writes_tracks(self):
        h = Harness()

        def main():
            yield from h.connect()
            for batch_start in range(1, 200, 7):
                yield from h.conn.send(ForceLogMsg(
                    client_id="c1", epoch=1,
                    records=h.records(range(batch_start, batch_start + 7),
                                      size=100)))

        h.sim.spawn(main())
        h.run(until=60)
        assert h.server.disk.tracks_written > 0
        assert h.server.nvram.total_appended > 0

    def test_crash_restart_preserves_records(self):
        h = Harness()
        result = {}

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2, 3])))
            yield h.sim.timeout(1.0)
            h.server.crash()
            h.server.restart(lose_nvram=False)
            # reconnect (old connection died with the server)
            yield from h.connect()
            reply = yield from h.rpc.call(IntervalListCall(client_id="c1"))
            result["intervals"] = reply.intervals

        h.sim.spawn(main())
        h.run(until=60)
        assert [(iv.lo, iv.hi) for iv in result["intervals"]] == [(1, 3)]

    def test_crash_without_nvram_loses_unsealed_tail(self):
        h = Harness(nvram_enabled=True)
        result = {}

        def main():
            yield from h.connect()
            # a small write that stays in the open (unsealed) track
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2])))
            yield h.sim.timeout(0.05)
            h.server.crash()
            h.server.restart(lose_nvram=True)
            yield from h.connect()
            reply = yield from h.rpc.call(IntervalListCall(client_id="c1"))
            result["intervals"] = reply.intervals

        h.sim.spawn(main())
        h.run(until=60)
        # the acknowledged records are GONE: exactly why the paper's
        # footnote demands non-volatile buffering.
        assert result["intervals"] == ()

    def test_force_latency_much_higher_without_nvram(self):
        def force_time(nvram_enabled):
            h = Harness(nvram_enabled=nvram_enabled)
            marks = {}

            def main():
                yield from h.connect()
                start = h.sim.now
                yield from h.conn.send(ForceLogMsg(
                    client_id="c1", epoch=1, records=h.records([1])))
                while not h.acks:
                    yield h.sim.timeout(0.001)
                marks["t"] = h.sim.now - start

            h.sim.spawn(main())
            h.run(until=30)
            return marks["t"]

        assert force_time(False) > 5 * force_time(True)


class TestLoadShedding:
    def test_full_nvram_sheds_messages(self):
        h = Harness(nvram_capacity=8 * 1024)
        h.server.nvram.append(h.server.nvram.data_capacity - 100)

        def main():
            yield from h.connect()
            yield from h.conn.send(ForceLogMsg(
                client_id="c1", epoch=1, records=h.records([1, 2], size=200)))

        h.sim.spawn(main())
        h.run(until=5)
        assert h.server.messages_shed == 1
        assert h.acks == []
