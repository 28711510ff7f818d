"""The layer ladder: each layer's public function, called alone.

Fixed iteration counts, one process, no daemons.  Every rung reports
the median of several timed batches, so a number here is a layer's
cost with nothing else in the way — the share of a force or a read it
can account for at most (README.md says which end-to-end metric each
rung should move).
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
from time import perf_counter

from repro.core.config import ReplicationConfig
from repro.core.intervals import Interval, MergedIntervalMap, ServerIntervals
from repro.core.records import StoredRecord
from repro.core.store import LogServerStore
from repro.net import codec
from repro.net.messages import (
    AckReply,
    CopyLogCall,
    ForceLogMsg,
    GeneratorReadCall,
    GeneratorReadReply,
    GeneratorWriteCall,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    NewHighLSNMsg,
    PingMsg,
    PongMsg,
)
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon
from repro.storage.append_forest import AppendForest

from .harness import median, payload

Metric = tuple[float, str]
CLIENT = "ladder"
EPOCH = 1
REPEATS = 5


def _records(first_lsn: int, count: int, size: int) -> tuple[StoredRecord, ...]:
    return tuple(
        StoredRecord(lsn=first_lsn + i, epoch=EPOCH,
                     data=payload(0, 0, first_lsn + i, size))
        for i in range(count))


def _per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``fn()`` over ``repeats`` batches."""
    batches = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        batches.append((perf_counter() - t0) / calls)
    return median(batches)


def _force_frame(first_lsn: int, count: int, size: int) -> bytes:
    records = _records(first_lsn, count, size)
    images = [codec.encode_stored_record(r) for r in records]
    return b"".join(codec.frame_iov(
        ForceLogMsg.trusted(CLIENT, EPOCH, records), images))


# -- net.codec ---------------------------------------------------------------


def codec_rungs(scale: float) -> dict[str, Metric]:
    n = max(50, int(20_000 * scale))
    record = _records(1, 1, 100)[0]
    et1 = _records(1, 7, 100)
    et1_images = [codec.encode_stored_record(r) for r in et1]
    et1_msg = ForceLogMsg.trusted(CLIENT, EPOCH, et1)
    et1_payload = _force_frame(1, 7, 100)[codec.FRAME_PREFIX_BYTES:]
    bulk_payload = _force_frame(1, 32, 1024)[codec.FRAME_PREFIX_BYTES:]
    images: list[bytes] = []

    def decode_force() -> None:
        images.clear()
        codec.decode(et1_payload, images)

    bulk_s = _per_call(lambda: codec.decode(bulk_payload, []), n // 10)
    out = {
        "net.codec.encode_record_ns": (
            1e9 * _per_call(lambda: codec.encode_stored_record(record), n),
            "ns"),
        "net.codec.frame_iov_us": (
            1e6 * _per_call(lambda: codec.frame_iov(et1_msg, et1_images),
                            n // 4), "us"),
        "net.codec.decode_force_us": (
            1e6 * _per_call(decode_force, n // 4), "us"),
        "net.codec.decode_bulk_mb_per_s": (32 * 1024 / bulk_s / 1e6, "MB/s"),
        "net.codec.reply_frame_us": (
            1e6 * _per_call(lambda: codec.frame_new_high_lsn(CLIENT, 7), n),
            "us"),
        "net.codec.reply_frame_generic_us": (
            1e6 * _per_call(
                lambda: codec.frame(NewHighLSNMsg(CLIENT, new_high_lsn=7)),
                n), "us"),
    }
    frame = _force_frame(1, 7, 100)
    for chunk, frames in ((7, n // 80), (1460, n // 10), (65536, n // 10)):
        seconds = median(
            asyncio.run(_frame_reader_pass(frame, max(10, frames), chunk))
            for _ in range(REPEATS))
        out[f"net.codec.framereader_us_per_frame.c{chunk}"] = (
            1e6 * seconds, "us")
    return out


async def _frame_reader_pass(frame: bytes, frames: int, chunk: int) -> float:
    """Seconds per frame of ``FrameReader.read_message`` over a
    ``StreamReader`` fed ``chunk`` bytes at a time.

    Frames are all the same size, so the rung knows when a whole frame
    has been fed and never parks on the reader.
    """
    stream = frame * frames
    reader = asyncio.StreamReader()
    frames_in = codec.FrameReader(reader)
    fed = parsed = 0
    images: list[bytes] = []
    t0 = perf_counter()
    while fed < len(stream):
        reader.feed_data(stream[fed:fed + chunk])
        fed = min(len(stream), fed + chunk)
        while (parsed + 1) * len(frame) <= fed:
            images.clear()
            await frames_in.read_message(images)
            parsed += 1
    seconds = perf_counter() - t0
    frames_in.close()
    if parsed != frames:
        raise RuntimeError(f"FrameReader gave {parsed} of {frames} frames")
    return seconds / frames


# -- rt.filestore ------------------------------------------------------------


def filestore_rungs(scale: float, root: str) -> dict[str, Metric]:
    out: dict[str, Metric] = {}
    batches = max(20, int(3000 * scale))

    # append without fsync: the Python share of a force's storage cost
    store = FileLogStore(os.path.join(root, "append"), "ladder")
    lsn = 1
    times = []
    for _ in range(batches):
        batch = _records(lsn, 7, 100)
        lsn += 7
        t0 = perf_counter()
        store.append_records(CLIENT, batch, fsync=False)
        times.append(perf_counter() - t0)
    out["rt.filestore.append_batch_us"] = (1e6 * median(times), "us")

    # the fsync alone, with one fresh ET1 batch dirty each time: the
    # device share, and the floor of a solo force
    times = []
    for _ in range(max(20, int(300 * scale))):
        store.append_records(CLIENT, _records(lsn, 7, 100), fsync=False)
        lsn += 7
        t0 = perf_counter()
        store.sync()
        times.append(perf_counter() - t0)
    out["rt.filestore.sync_us"] = (1e6 * median(times), "us")
    store.close()

    # bulk appends, and the fixed 10 MB log the read rungs use
    store = FileLogStore(os.path.join(root, "bulk"), "ladder")
    groups = max(20, int(320 * scale))
    lsn = 1
    times = []
    for _ in range(groups):
        batch = _records(lsn, 32, 1024)
        lsn += 32
        t0 = perf_counter()
        store.append_records(CLIENT, batch, fsync=False)
        times.append(perf_counter() - t0)
    store.sync()
    out["rt.filestore.append_bulk_mb_per_s"] = (
        32 * 1024 / median(times) / 1e6, "MB/s")
    high = lsn - 1
    log_mb = store.log_size_bytes / 1e6

    rng = random.Random(0)
    reads = max(100, int(20_000 * scale))
    out["rt.filestore.read_record_us"] = (1e6 * _per_call(
        lambda: store.read_record(CLIENT, rng.randint(1, high)), reads), "us")
    out["rt.filestore.read_via_index_us"] = (1e6 * _per_call(
        lambda: store.read_via_index(CLIENT, rng.randint(1, high)),
        reads // 10), "us")
    out["rt.filestore.interval_list_us"] = (1e6 * _per_call(
        lambda: store.interval_list(CLIENT), reads), "us")
    # what the daemon's ReadLog handler calls before every read_record
    out["rt.filestore.stored_lsns_us"] = (1e6 * _per_call(
        lambda: store.stored_lsns(CLIENT), reads // 100), "us")
    store.close()

    # reopen = the recovery scan a restarted daemon pays
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reopened = FileLogStore(os.path.join(root, "bulk"), "ladder")
        times.append(perf_counter() - t0)
        if reopened.record_count() != high:
            raise RuntimeError(
                f"reopen replayed {reopened.record_count()} of {high} records")
        reopened.close()
    out["rt.filestore.reopen_ms_per_mb"] = (
        1e3 * median(times) / log_mb, "ms/MB")
    return out


# -- core and storage --------------------------------------------------------


def core_rungs(scale: float) -> dict[str, Metric]:
    n = max(200, int(20_000 * scale))
    out: dict[str, Metric] = {}

    def timed_passes(make, step) -> float:
        """Median per-step seconds; ``make()`` gives fresh state."""
        passes = []
        for _ in range(REPEATS):
            state = make()
            t0 = perf_counter()
            for i in range(n):
                step(state, i)
            passes.append((perf_counter() - t0) / n)
        return median(passes)

    records = _records(1, n, 100)
    out["core.store.server_write_record_us"] = (1e6 * timed_passes(
        lambda: LogServerStore("ladder"),
        lambda store, i: store.server_write_record(CLIENT, records[i])), "us")
    out["core.intervals.note_range_us"] = (1e6 * timed_passes(
        MergedIntervalMap,
        lambda merged, i: merged.note_range(
            7 * i + 1, 7 * i + 7, EPOCH, "s1" if i % 2 else "s2")), "us")
    out["storage.append_forest.append_us"] = (1e6 * timed_passes(
        AppendForest,
        lambda forest, i: forest.append_key(i + 1, i)), "us")

    forest = AppendForest()
    for key in range(1, n + 1):
        forest.append_key(key, key)
    rng = random.Random(0)
    out["storage.append_forest.lookup_us"] = (1e6 * _per_call(
        lambda: forest.search(rng.randint(1, n)), n), "us")

    # two servers' lists, 1000 intervals each, alternating epochs so
    # neighbours do not coalesce
    reports = [
        ServerIntervals(sid, tuple(
            Interval(epoch=1 + (i % 2), lo=20 * i + 1 + shift,
                     hi=20 * i + 10 + shift)
            for i in range(1000)))
        for sid, shift in (("s1", 0), ("s2", 5))]
    out["core.intervals.merge_ms"] = (1e3 * _per_call(
        lambda: MergedIntervalMap.merge(reports),
        max(2, int(20 * scale))), "ms")
    return out


# -- the two halves of a force -----------------------------------------------


async def raw_force_rung(scale: float, root: str) -> dict[str, Metric]:
    """One in-process daemon over a real ``FileLogStore``, driven by a
    raw socket sending pre-encoded ForceLog frames and reading
    NewHighLSN: the server-side half of a force, no client protocol."""
    forces = max(50, int(1500 * scale))
    daemon = LogServerDaemon(FileLogStore(os.path.join(root, "raw"),
                                          "ladder"))
    await daemon.start()
    reader, writer = await asyncio.open_connection(daemon.host, daemon.port)
    frames = [_force_frame(7 * i + 1, 7, 100) for i in range(forces)]
    times = []
    try:
        for i, frame in enumerate(frames):
            t0 = perf_counter()
            writer.write(frame)
            reply = await codec.read_message(reader)
            times.append(perf_counter() - t0)
            if not (isinstance(reply, NewHighLSNMsg)
                    and reply.new_high_lsn == 7 * i + 7):
                raise RuntimeError(f"force {i} answered with {reply!r}")
    finally:
        writer.close()
        await writer.wait_closed()
        await daemon.close()
    return {"rt.server.raw_force_us": (1e6 * median(times), "us")}


async def _null_server(reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
    """A log server that acknowledges without storing anything, written
    from ``net.codec`` public functions: what remains of a force is the
    client library, the socket hop and the event loop."""
    frames = codec.FrameReader(reader)
    try:
        while True:
            msg = await frames.read_message()
            if msg is None:
                break
            cid = msg.client_id
            if isinstance(msg, ForceLogMsg):
                reply = codec.frame_new_high_lsn(cid, msg.high_lsn)
            elif isinstance(msg, IntervalListCall):
                reply = codec.frame(IntervalListReply(cid, ()))
            elif isinstance(msg, GeneratorReadCall):
                reply = codec.frame(GeneratorReadReply(cid, 0))
            elif isinstance(msg, (GeneratorWriteCall, CopyLogCall,
                                  InstallCopiesCall)):
                reply = codec.frame(AckReply(cid, ok=True))
            elif isinstance(msg, PingMsg):
                reply = codec.frame(PongMsg(cid, token=msg.token))
            else:
                continue  # WriteLog, NewInterval: no reply
            writer.write(reply)
    except ConnectionError:
        pass
    finally:
        frames.close()
        writer.close()


async def null_server_rung(scale: float) -> dict[str, Metric]:
    txns = max(50, int(1500 * scale))
    servers = [await asyncio.start_server(_null_server, "127.0.0.1", 0)
               for _ in range(3)]
    addresses = {
        f"s{i + 1}": server.sockets[0].getsockname()[:2]
        for i, server in enumerate(servers)}
    log = AsyncReplicatedLog(CLIENT, addresses,
                             ReplicationConfig(3, 2, delta=8))
    times = []
    try:
        await log.initialize()
        data = payload(0, 0, 0, 100)
        for _ in range(txns):
            for _ in range(7):
                await log.write(data)
            t0 = perf_counter()
            await log.force()
            times.append(perf_counter() - t0)
    finally:
        await log.close()
        for server in servers:
            server.close()
            await server.wait_closed()
    return {"rt.client.null_server_force_us": (1e6 * median(times), "us")}


def run_ladder(scale: float, data_root: str) -> dict[str, Metric]:
    """Every rung; ``scale`` multiplies the iteration counts."""
    root = os.path.join(data_root, "ladder")
    os.makedirs(root, exist_ok=True)
    try:
        out = codec_rungs(scale)
        out.update(filestore_rungs(scale, root))
        out.update(core_rungs(scale))
        out.update(asyncio.run(raw_force_rung(scale, root)))
        out.update(asyncio.run(null_server_rung(scale)))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out
