"""The daemon reads ahead of a scan — counted, not timed.

Once a ReadLog call continues exactly where the previous reply on its
connection ended, the daemon builds the next reply after writing this
one and holds it for the call that asks for it.  What must hold:

* a connection receives, byte for byte, what a fresh connection per
  call would (no history, so nothing built ahead) — for any stores and
  any sequence of forward and backward calls;
* a sequential scan of k calls is answered from the held reply k − 2
  times and wastes at most one build; anything else wastes at most one;
* a held reply is never served once its stream has changed;
* one connection holds at most one reply, of the reply cap plus one
  record, and holds nothing after it closes, after any other message,
  for point or legacy reads, for unknown clients, or at the end of the
  stream;
* reply k is with the transport before the store is read for k + 1,
  and work the loop already had queued runs before that read;
* a rotten image met while reading ahead is reported to the call that
  asks for it, once, on a connection that stays up.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ReplicationConfig
from repro.core.records import StoredRecord
from repro.net.codec import FRAME_PREFIX_BYTES, decode, frame
from repro.net.messages import (
    ERR_STORAGE,
    MAX_RECORDS_ANY,
    AckReply,
    CopyLogCall,
    ErrorReply,
    ForceLogMsg,
    InstallCopiesCall,
    Message,
    NewHighLSNMsg,
    PingMsg,
    PongMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
)
from repro.rt.client import AsyncReplicatedLog
from repro.rt.cluster import LoopbackCluster
from repro.rt.filestore import FileLogStore
from repro.rt.server import READ_REPLY_CAP_BYTES, LogServerDaemon

from .test_read_corruption import _rot

SRC = str(Path(__file__).resolve().parents[2] / "src")
RECORD_BYTES = 256
PER_REPLY = READ_REPLY_CAP_BYTES // (16 + RECORD_BYTES)  # 240
FRAME_HEAD_BYTES = FRAME_PREFIX_BYTES + 32


def _data(lsn: int, size: int = RECORD_BYTES) -> bytes:
    return (b"%08d" % lsn) * (size // 8)


def _fill(store: FileLogStore, client_id: str, count: int) -> None:
    for lo in range(1, count + 1, 50):
        store.append_records(client_id, tuple(
            StoredRecord(lsn, 1, data=_data(lsn))
            for lsn in range(lo, min(lo + 50, count + 1))), fsync=False)
    store.sync()


class Wire:
    """One raw connection to a daemon."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, daemon: LogServerDaemon) -> "Wire":
        return cls(*await asyncio.open_connection(daemon.host, daemon.port))

    def send(self, msg: Message) -> None:
        self.writer.write(frame(msg))

    async def receive_raw(self) -> bytes:
        """The next reply's whole frame, as it came off the socket."""
        prefix = await asyncio.wait_for(
            self.reader.readexactly(FRAME_PREFIX_BYTES), 10)
        return prefix + await asyncio.wait_for(
            self.reader.readexactly(int.from_bytes(prefix, "big")), 10)

    async def call_raw(self, msg: Message) -> bytes:
        self.send(msg)
        return await self.receive_raw()

    async def call(self, msg: Message) -> Message:
        return decode((await self.call_raw(msg))[FRAME_PREFIX_BYTES:])

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _fresh_raw(daemon: LogServerDaemon, msg: Message) -> bytes:
    """What a connection with no history receives for ``msg``."""
    wire = await Wire.open(daemon)
    try:
        return await wire.call_raw(msg)
    finally:
        await wire.close()


async def _settle(daemon: LogServerDaemon) -> None:
    """Let the daemon's side of the loop run until it has nothing
    queued: a scheduled read-ahead has run, a closed connection's
    handler has finished."""
    for _ in range(5):
        await asyncio.sleep(0.001)


def _run_with_daemon(tmp_path, body, *, records: int = 600):
    """Run ``body(daemon, store)`` against one in-process daemon over a
    store of ``records`` 256-byte records of client ``c``."""
    async def main():
        store = FileLogStore(tmp_path / "s1", "s1")
        _fill(store, "c", records)
        daemon = LogServerDaemon(store)
        await daemon.start()
        try:
            await body(daemon, store)
        finally:
            await daemon.close()

    asyncio.run(main())


# -- (a) the oracle ----------------------------------------------------------

#: image sizes that make the byte cap bite (a few 20 000 B records fill
#: a reply) and small ones that let a record limit bite first.
_SIZES = st.sampled_from([0, 8, 64, 256, 4096, 20_000])
_LIMITS = st.sampled_from([2, 3, 7, 40, MAX_RECORDS_ANY])


@st.composite
def _stream(draw) -> dict:
    """One client's history: ascending LSNs with gaps at epoch 1, then
    some of them rewritten at epoch 2 (CopyLog + InstallCopies)."""
    steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=40))
    lsns, lsn = [], 0
    for step in steps:
        lsn += step
        lsns.append(lsn)
    sizes = draw(st.lists(_SIZES, min_size=len(lsns), max_size=len(lsns)))
    rewritten = draw(st.lists(st.sampled_from(lsns), unique=True,
                              max_size=len(lsns)))
    return {"records": list(zip(lsns, sizes)), "rewritten": rewritten}


def _build(root: str, streams: dict[str, dict]) -> FileLogStore:
    """The two clients' appends interleaved record by record, so a run
    of one stream is scattered among the other's entries."""
    store = FileLogStore(root, "s1")
    queues = {cid: list(s["records"]) for cid, s in streams.items()}
    while any(queues.values()):
        for cid, queue in queues.items():
            if queue:
                lsn, size = queue.pop(0)
                store.append_records(
                    cid, (StoredRecord(lsn, 1, data=bytes([lsn % 251]) * size),),
                    fsync=False)
    for cid, stream in streams.items():
        for lsn in stream["rewritten"]:
            store.stage_copy(cid, StoredRecord(lsn, 2, data=b"copy%d" % lsn))
        if stream["rewritten"]:
            store.install_copies(cid, 2)
    store.sync()
    return store


#: a step of a connection's life: ``None`` continues the previous reply
#: the way a scanning caller would, a tuple starts somewhere else.
_STEPS = st.lists(st.one_of(
    st.none(), st.none(), st.none(),
    st.tuples(st.sampled_from(["a", "b"]), st.booleans(),
              st.integers(0, 130), _LIMITS)), min_size=2, max_size=14)


def test_a_connection_receives_what_a_fresh_one_per_call_would():
    hits = []

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries({"a": _stream(), "b": _stream()}), _STEPS)
    def check(streams, steps):
        async def main(root):
            store = _build(root, streams)
            daemon = LogServerDaemon(store)
            await daemon.start()
            wire = await Wire.open(daemon)
            try:
                call = ReadLogForwardCall("a", 1, 3)
                reply = None
                for step in steps:
                    if step is not None:
                        cid, forward, lsn, limit = step
                        call = (ReadLogForwardCall if forward
                                else ReadLogBackwardCall)(cid, lsn, limit)
                    elif reply is not None and reply.records:
                        lsn = (reply.records[-1].lsn + 1
                               if isinstance(call, ReadLogForwardCall)
                               else reply.records[0].lsn - 1)
                        call = type(call)(call.client_id, lsn,
                                          call.max_records)
                    got = await wire.call_raw(call)
                    assert got == await _fresh_raw(daemon, call), call
                    reply = decode(got[FRAME_PREFIX_BYTES:])
                    assert isinstance(reply, ReadLogReply)
                hits.append(daemon.read_ahead_hits)
                await wire.close()
                await _settle(daemon)
                assert daemon.held_reply_bytes == 0
            finally:
                await daemon.close()

        with tempfile.TemporaryDirectory() as root:
            asyncio.run(main(root))

    check()
    assert sum(hits) > 0  # the property was about held replies too


# -- (b) hits and waste, counted ----------------------------------------------


async def _scan(wire: Wire, lsn: int, last: int, *,
                forward: bool = True) -> int:
    """Scan ``c`` from ``lsn`` to ``last`` the way ``read_forward``'s
    callers do; every record checked; returns the number of calls."""
    calls = 0
    kind = ReadLogForwardCall if forward else ReadLogBackwardCall
    step = 1 if forward else -1
    while (lsn <= last) if forward else (lsn >= last):
        reply = await wire.call(kind("c", lsn, MAX_RECORDS_ANY))
        calls += 1
        records = reply.records if forward else reply.records[::-1]
        assert records
        for record in records:
            assert record.lsn == lsn and record.data == _data(lsn)
            lsn += step
    return calls


def test_a_sequential_scan_hits_on_all_but_its_first_two_calls(tmp_path):
    async def body(daemon, store):
        for forward, first, last in ((True, 1, 2000), (False, 2000, 1)):
            hits, wasted = daemon.read_ahead_hits, daemon.read_ahead_wasted
            wire = await Wire.open(daemon)
            calls = await _scan(wire, first, last, forward=forward)
            assert calls == -(-2000 // PER_REPLY)  # 9
            assert daemon.read_ahead_hits - hits == calls - 2
            await wire.close()
            await _settle(daemon)
            assert daemon.read_ahead_wasted - wasted <= 1
            assert daemon.held_reply_bytes == 0

    _run_with_daemon(tmp_path, body, records=2000)


def test_a_scan_abandoned_midway_wastes_one_reply(tmp_path):
    async def body(daemon, store):
        wire = await Wire.open(daemon)
        assert await _scan(wire, 1, 3 * PER_REPLY) == 3
        await _settle(daemon)
        assert daemon.read_ahead_hits == 1
        assert 0 < daemon.held_reply_bytes
        await wire.close()
        await _settle(daemon)
        assert daemon.read_ahead_wasted == 1
        assert daemon.held_reply_bytes == 0

    _run_with_daemon(tmp_path, body, records=2000)


def test_alternating_between_two_positions_never_hits(tmp_path):
    async def body(daemon, store):
        wire = await Wire.open(daemon)
        for _ in range(6):
            for lsn in (1, 301):
                reply = await wire.call(
                    ReadLogForwardCall("c", lsn, MAX_RECORDS_ANY))
                assert reply.records[0].lsn == lsn
                await _settle(daemon)
        assert daemon.read_ahead_hits == 0
        assert daemon.read_ahead_wasted <= 1
        await wire.close()

    _run_with_daemon(tmp_path, body)


# -- (c) invalidation ----------------------------------------------------------


def test_a_held_reply_is_never_served_once_its_stream_changed(tmp_path):
    """600 records: a scan's first two calls take 1–480 and the reply
    to the third is held; each change to the stream in between makes
    the third call's answer the fresh one."""
    third = ReadLogForwardCall("c", 2 * PER_REPLY + 1, MAX_RECORDS_ANY)

    async def held_scan(daemon) -> Wire:
        wire = await Wire.open(daemon)
        assert await _scan(wire, 1, 2 * PER_REPLY) == 2
        await _settle(daemon)
        assert daemon.held_reply_bytes > 0
        return wire

    async def body(daemon, store):
        other = await Wire.open(daemon)

        # another client's stream changing changes nothing
        wire = await held_scan(daemon)
        store.append_records("d", (StoredRecord(1, 1, data=b"d"),),
                             fsync=False)
        reply = await wire.call(third)
        assert [r.lsn for r in reply.records] == list(range(481, 601))
        assert (daemon.read_ahead_hits, daemon.read_ahead_wasted) == (1, 0)
        await wire.close()

        # an append: the held reply ended where the stream used to
        wire = await held_scan(daemon)
        store.append_records("c", tuple(
            StoredRecord(lsn, 1, data=_data(lsn))
            for lsn in range(601, 611)), fsync=False)
        got = await wire.call_raw(third)
        assert got == await _fresh_raw(daemon, third)
        assert [r.lsn for r in decode(got[FRAME_PREFIX_BYTES:]).records] \
            == list(range(481, 611))
        assert (daemon.read_ahead_hits, daemon.read_ahead_wasted) == (1, 1)
        await wire.close()

        # CopyLog + InstallCopies of a higher-epoch copy inside it
        wire = await held_scan(daemon)
        copy = StoredRecord(500, 2, data=b"rewritten")
        assert await other.call(CopyLogCall("c", 2, (copy,))) == \
            AckReply("c", ok=True)
        assert await other.call(InstallCopiesCall("c", 2)) == \
            AckReply("c", ok=True)
        got = await wire.call_raw(third)
        assert got == await _fresh_raw(daemon, third)
        assert decode(got[FRAME_PREFIX_BYTES:]).records[500 - 481] == copy
        assert (daemon.read_ahead_hits, daemon.read_ahead_wasted) == (1, 2)
        await wire.close()

        # a truncation into it
        wire = await held_scan(daemon)
        assert store.truncate_below("c", 490) == 489
        got = await wire.call_raw(third)
        assert got == await _fresh_raw(daemon, third)
        assert decode(got[FRAME_PREFIX_BYTES:]).records[0].lsn == 490
        assert (daemon.read_ahead_hits, daemon.read_ahead_wasted) == (1, 3)
        await wire.close()
        await other.close()

    _run_with_daemon(tmp_path, body)


# -- (d) bounds ------------------------------------------------------------------


def test_one_connection_holds_at_most_one_reply_of_cap_plus_a_record(
        tmp_path):
    big = 60_000

    async def main():
        store = FileLogStore(tmp_path / "s1", "s1")
        for lsn in range(1, 41):
            store.append_records("c", (StoredRecord(
                lsn, 1, data=bytes([lsn]) * (big if lsn % 2 else 5000)),),
                fsync=False)
        store.sync()
        daemon = LogServerDaemon(store)
        await daemon.start()
        try:
            wire = await Wire.open(daemon)
            lsn, most = 1, 0
            while lsn <= 40:
                reply = await wire.call(
                    ReadLogForwardCall("c", lsn, MAX_RECORDS_ANY))
                lsn = reply.records[-1].lsn + 1
                await _settle(daemon)
                most = max(most, daemon.held_reply_bytes)
            assert daemon.read_ahead_hits > 0
            assert 0 < most <= (READ_REPLY_CAP_BYTES + 16 + big
                                + FRAME_HEAD_BYTES)
            # the scan reached the end of the stream: nothing is held
            assert daemon.held_reply_bytes == 0
            await wire.close()
        finally:
            await daemon.close()

    asyncio.run(main())


def test_nothing_is_held_after_close_or_any_other_message(tmp_path):
    async def body(daemon, store):
        for ending in ("close", "ping", "point read", "other stream"):
            wire = await Wire.open(daemon)
            assert await _scan(wire, 1, 2 * PER_REPLY) == 2
            await _settle(daemon)
            assert daemon.held_reply_bytes > 0, ending
            if ending == "ping":
                assert await wire.call(PingMsg("c", token=7)) == \
                    PongMsg("c", token=7)
            elif ending == "point read":
                reply = await wire.call(
                    ReadLogForwardCall("c", 2 * PER_REPLY + 1, 1))
                assert len(reply.records) == 1
            elif ending == "other stream":
                assert await wire.call(ReadLogForwardCall(
                    "nobody", 2 * PER_REPLY + 1, MAX_RECORDS_ANY)) == \
                    ReadLogReply("nobody", ())
            else:
                await wire.close()
                await _settle(daemon)
            assert daemon.held_reply_bytes == 0, ending
            if ending != "close":
                await wire.close()
        assert daemon.read_ahead_hits == 0

    _run_with_daemon(tmp_path, body)


def test_point_and_legacy_reads_never_read_ahead(tmp_path):
    async def body(daemon, store):
        wire = await Wire.open(daemon)
        for limit in (0, 1):
            lsn = 1
            for _ in range(8):
                reply = await wire.call(ReadLogForwardCall("c", lsn, limit))
                lsn = reply.records[-1].lsn + 1
                await _settle(daemon)
                assert daemon.held_reply_bytes == 0
        assert (daemon.read_ahead_hits, daemon.read_ahead_wasted) == (0, 0)
        await wire.close()

    _run_with_daemon(tmp_path, body)


def test_unknown_clients_allocate_nothing(tmp_path):
    async def body(daemon, store):
        before = store.mem.known_clients()
        wire = await Wire.open(daemon)
        for base in range(0, 10_000, 500):
            ghosts = [f"ghost-{base + i}" for i in range(500)]
            for cid in ghosts:  # a "scan" of each: two continuing calls
                wire.send(ReadLogForwardCall(cid, 1, MAX_RECORDS_ANY))
                wire.send(ReadLogForwardCall(cid, 1, MAX_RECORDS_ANY))
            for cid in ghosts:
                for _ in range(2):
                    raw = await wire.receive_raw()
                    assert decode(raw[FRAME_PREFIX_BYTES:]) == \
                        ReadLogReply(cid, ())
        await _settle(daemon)
        assert store.mem.known_clients() == before == ["c"]
        assert not store._versions or set(store._versions) == {"c"}
        assert daemon.held_reply_bytes == 0
        assert (daemon.read_ahead_hits, daemon.read_ahead_wasted) == (0, 0)
        await wire.close()

    _run_with_daemon(tmp_path, body, records=10)


# -- (e) ordering -----------------------------------------------------------------


def _spy(monkeypatch, events: list) -> None:
    """Log every store read of a reply's run, every vectored write a
    daemon hands to a transport, and every force it parks."""
    read_run = FileLogStore.read_run
    writelines = asyncio.StreamWriter.writelines
    park = LogServerDaemon._park_force

    def spy_read_run(self, client_id, lsns, budget, images):
        lsns = list(lsns)
        events.append(("read", lsns[0]))
        return read_run(self, client_id, lsns, budget, images)

    def spy_writelines(self, bufs):
        events.append(("write", sum(map(len, bufs))))
        return writelines(self, bufs)

    def spy_park(self, msg, writer, images=None):
        events.append(("park", msg.high_lsn))
        return park(self, msg, writer, images)

    monkeypatch.setattr(FileLogStore, "read_run", spy_read_run)
    monkeypatch.setattr(asyncio.StreamWriter, "writelines", spy_writelines)
    monkeypatch.setattr(LogServerDaemon, "_park_force", spy_park)


def test_a_reply_is_written_before_the_next_one_is_read(tmp_path,
                                                        monkeypatch):
    events: list = []

    async def body(daemon, store):
        _spy(monkeypatch, events)
        wire = await Wire.open(daemon)
        assert await _scan(wire, 1, 4 * PER_REPLY) == 4
        await _settle(daemon)
        await wire.close()

    _run_with_daemon(tmp_path, body, records=2000)
    starts = [1 + i * PER_REPLY for i in range(5)]
    # read 1, write it, read 2, write it, read 3 *ahead*, write it when
    # asked, …: no run is read before the reply ahead of it was written
    assert [e for e in events if e[0] == "read"] == \
        [("read", lsn) for lsn in starts]
    assert [kind for kind, _ in events] == ["read", "write"] * 4 + ["read"]


def test_a_force_already_readable_is_parked_before_the_read_ahead(
        tmp_path, monkeypatch):
    events: list = []

    async def body(daemon, store):
        scanner = await Wire.open(daemon)
        writer = await Wire.open(daemon)
        assert await _scan(scanner, 1, PER_REPLY) == 1
        _spy(monkeypatch, events)
        # both frames are in the daemon's sockets before its loop runs
        scanner.send(ReadLogForwardCall("c", PER_REPLY + 1,
                                        MAX_RECORDS_ANY))
        writer.send(ForceLogMsg("w", 1, (StoredRecord(1, 1, data=b"w"),)))
        reply = decode((await scanner.receive_raw())[FRAME_PREFIX_BYTES:])
        assert reply.records[0].lsn == PER_REPLY + 1
        ack = decode((await writer.receive_raw())[FRAME_PREFIX_BYTES:])
        assert ack == NewHighLSNMsg("w", 1)
        await _settle(daemon)
        await scanner.close()
        await writer.close()

    _run_with_daemon(tmp_path, body, records=2000)
    ahead = events.index(("read", 2 * PER_REPLY + 1))
    assert events.index(("park", 1)) < ahead
    assert events.index(("read", PER_REPLY + 1)) < ahead


# -- (f) a rotten image ahead ------------------------------------------------------


def test_a_rotten_image_read_ahead_is_reported_to_its_call_once(tmp_path):
    rotten = 2 * PER_REPLY + 1  # the head of the third reply

    async def body(daemon, store):
        _rot(store, "c", rotten)
        wire = await Wire.open(daemon)
        assert await _scan(wire, 1, 2 * PER_REPLY) == 2
        await _settle(daemon)
        assert store.crc_rejections == 1  # met reading ahead
        reply = await wire.call(
            ReadLogForwardCall("c", rotten, MAX_RECORDS_ANY))
        assert isinstance(reply, ErrorReply) and reply.code == ERR_STORAGE
        assert store.crc_rejections == 1
        # the connection is up, and past the record the scan goes on
        reply = await wire.call(
            ReadLogForwardCall("c", rotten + 1, MAX_RECORDS_ANY))
        assert [r.lsn for r in reply.records] == \
            list(range(rotten + 1, 601))
        await wire.close()

    _run_with_daemon(tmp_path, body)


# -- real processes -----------------------------------------------------------------


def test_scan_over_real_daemons_shows_in_repro_stats(tmp_path):
    """3 ``repro serve`` processes, 2 000 × 256 B, every daemon
    restarted, one scan: every record matches and ``repro stats`` of
    the daemon that served it counts all but two calls as hits."""
    config = ReplicationConfig(total_servers=3, copies=2, delta=8)

    async def preload(cluster) -> tuple[int, int]:
        log = AsyncReplicatedLog("c", cluster.addresses(), config)
        await log.initialize()
        lsns = []
        for i in range(2000):
            lsns.append(await log.write(_data(i)))
            if len(lsns) % 64 == 0:
                await log.force()
        await log.force()
        await log.close()
        return lsns[0], lsns[-1]

    async def scan(cluster, first: int, last: int) -> int:
        log = AsyncReplicatedLog("c", cluster.addresses(), config)
        await log.initialize()
        calls, lsn = 0, first
        while lsn <= last:
            records = await log.read_forward(lsn)
            calls += 1
            for record in records:
                assert record.lsn == lsn
                assert lsn > last or record.data == _data(lsn - first)
                lsn += 1
        await log.close()
        return calls

    def stats(address: tuple[str, int]) -> dict[str, int]:
        out = subprocess.run(
            [sys.executable, "-m", "repro", "stats",
             "%s:%d" % address, "--json"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    with LoopbackCluster(tmp_path, num_servers=3) as cluster:
        first, last = asyncio.run(preload(cluster))
        for sid in list(cluster.servers):
            cluster.restart(sid)
        calls = asyncio.run(scan(cluster, first, last))
        assert calls >= -(-2000 // PER_REPLY)
        counters = [stats(address)
                    for address in cluster.addresses().values()]
        assert sum(c["read_ahead_hits"] for c in counters) >= calls - 2
        assert sum(c["read_ahead_wasted"] for c in counters) <= 1
