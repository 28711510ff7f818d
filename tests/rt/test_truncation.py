"""Section 5.3 log space management, filestore-level and end-to-end.

A client that has checkpointed promises that records below its
truncation point "will never be read again"; servers are then free to
recycle the space.  These tests pin the whole contract:

* ``FileLogStore.truncate_below`` shrinks both the in-memory store and
  the on-disk append stream (compaction), and a daemon restart replays
  only the retained suffix — with present flags intact;
* a late retransmission of a reclaimed LSN is ignored, not treated as
  a protocol violation;
* a client that keeps truncating keeps the log bounded by what it
  retains — truncation alone compacts, with no size trigger;
* the client's ``truncate`` fans the call out to every reachable
  server and prunes its own read-routing map;
* a wedged store (disk full / IO error) degrades to read-only with a
  typed ErrorReply instead of a dropped connection.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import (
    LSNNotWritten,
    ServerUnavailable,
    StorageError,
)
from repro.core.records import StoredRecord
from repro.net.codec import frame, read_message
from repro.net.messages import (
    ERR_STORAGE,
    ErrorReply,
    ForceLogMsg,
    StatsCall,
)
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon

CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def _records(lo, hi, *, epoch=1, present=True, size=64):
    return tuple(
        StoredRecord(lsn=i, epoch=epoch, present=present,
                     data=(f"r{i}".encode().ljust(size, b".")
                           if present else b""),
                     kind="data" if present else "guard")
        for i in range(lo, hi + 1)
    )


# -- filestore level ------------------------------------------------------


def test_truncate_compacts_disk_and_restart_replays_suffix(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_records("c1", _records(1, 60), fsync=True)
    # A not-present guard inside the retained suffix: its flag must
    # survive compaction and replay.
    store.append_records("c1", _records(61, 61, present=False), fsync=True)
    size_before = os.path.getsize(os.path.join(tmp_path, "log.dat"))

    dropped = store.truncate_below("c1", 41)
    assert dropped == 40
    size_after = os.path.getsize(os.path.join(tmp_path, "log.dat"))
    assert size_after < size_before / 2
    assert store.stored_lsns("c1") == list(range(41, 62))
    assert store.record_count() == 21
    store.close()

    # Restart: replay sees only the retained suffix, flags intact.
    reopened = FileLogStore(tmp_path, "s1")
    assert reopened.stored_lsns("c1") == list(range(41, 62))
    assert reopened.truncated_lsn("c1") == 41
    assert reopened.read_record("c1", 41).data.startswith(b"r41")
    assert reopened.read_record("c1", 61).present is False
    with pytest.raises(ServerUnavailable):
        reopened.read_record("c1", 40)
    reopened.close()


def test_late_retransmission_below_mark_is_ignored(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_records("c1", _records(1, 20), fsync=True)
    store.truncate_below("c1", 11)
    # A straggler WriteLog re-sends reclaimed records (e.g. a window
    # replay raced the truncation): silently dropped, no error, and
    # the records stay gone.
    store.append_records("c1", _records(5, 12), fsync=True)
    assert store.stored_lsns("c1") == list(range(11, 21))
    store.close()


def test_truncation_alone_bounds_log_size(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    hi = 0
    for round_no in range(8):
        lo = hi + 1
        hi = lo + 19
        store.append_records("c1", _records(lo, hi), fsync=True)
        # The client keeps only the last δ records interesting.
        store.truncate_below("c1", max(1, hi - CONFIG.delta))
    assert store.compactions >= 1
    # Live state is ~δ records; every truncation that drops records
    # compacts, so the on-disk log is bounded by what is retained, not
    # by the 160 records ever appended.
    assert store.log_size_bytes < 3 * 8_000
    assert store.record_count() == CONFIG.delta + 1
    store.close()


def test_io_error_wedges_store_but_keeps_reads(tmp_path):
    store = FileLogStore(tmp_path, "s1")
    store.append_records("c1", _records(1, 10), fsync=True)

    class ExplodingFile:
        def __init__(self, inner):
            self._inner = inner

        def write(self, data):
            raise OSError(28, "No space left on device")

        def __getattr__(self, name):
            return getattr(self._inner, name)

    store._file = ExplodingFile(store._file)
    with pytest.raises(StorageError):
        store.append_records("c1", _records(11, 11), fsync=True)
    assert store.storage_errors == 1
    assert store.io_error is not None
    # Reads still served; further appends stay refused.
    assert store.read_record("c1", 10).lsn == 10
    with pytest.raises(StorageError):
        store.append_records("c1", _records(12, 12), fsync=True)
    store.close()


# -- daemon + client level ------------------------------------------------


class Cluster:
    def __init__(self, tmp_path, m=3):
        self.tmp_path = tmp_path
        self.m = m
        self.daemons: dict[str, LogServerDaemon] = {}

    async def __aenter__(self):
        for i in range(self.m):
            sid = f"s{i + 1}"
            data_dir = os.path.join(self.tmp_path, sid)
            daemon = LogServerDaemon(FileLogStore(data_dir, sid))
            await daemon.start()
            self.daemons[sid] = daemon
        return self

    def addresses(self):
        return {sid: (d.host, d.port) for sid, d in self.daemons.items()}

    async def __aexit__(self, *exc):
        for daemon in self.daemons.values():
            try:
                await daemon.close()
            except Exception:
                pass


def test_client_truncate_shrinks_servers_and_prunes_map(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG,
                                     keepalive_interval=0.0)
            await log.initialize()
            lsns = [await log.write(f"rec{i}".encode()) for i in range(30)]
            await log.force()
            low_water = lsns[-1] - CONFIG.delta

            before = {sid: d.store.record_count()
                      for sid, d in cluster.daemons.items()}
            dropped = await log.truncate(low_water)
            assert dropped > 0
            for sid, daemon in cluster.daemons.items():
                if before[sid]:
                    assert daemon.store.record_count() < before[sid]
                    assert daemon.store.truncated_lsn("c1") in (0, low_water)

            # The client's own map forgot the reclaimed prefix …
            with pytest.raises(LSNNotWritten):
                await log.read(lsns[0])
            # … but retained records still read fine, and the log is
            # still writable end to end.
            rec = await log.read(lsns[-1])
            assert rec.data == b"rec29"
            assert log.end_of_log() == lsns[-1]
            lsn = await log.write(b"after-truncate")
            await log.force()
            assert (await log.read(lsn)).data == b"after-truncate"
            await log.close()

    asyncio.run(main())


def test_storage_error_reply_is_typed_and_client_routes_around(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG,
                                     keepalive_interval=0.0)
            await log.initialize()
            await log.write(b"durable-before")
            await log.force()

            victim_sid = log.write_set[0]
            victim = cluster.daemons[victim_sid]

            class ExplodingFile:
                def __init__(self, inner):
                    self._inner = inner

                def write(self, data):
                    raise OSError(28, "No space left on device")

                def __getattr__(self, name):
                    return getattr(self._inner, name)

            victim.store._file = ExplodingFile(victim.store._file)

            # Wire-level: the daemon answers a force with a typed
            # storage ErrorReply — the connection survives.
            reader, writer = await asyncio.open_connection(
                victim.host, victim.port)
            probe = ForceLogMsg("probe", 1, (
                StoredRecord(lsn=1, epoch=1, data=b"x"),))
            writer.write(frame(probe))
            await writer.drain()
            reply = await asyncio.wait_for(read_message(reader), 5)
            assert isinstance(reply, ErrorReply)
            assert reply.code == ERR_STORAGE
            # Same connection still answers queries afterwards.
            writer.write(frame(StatsCall("probe")))
            await writer.drain()
            stats = await asyncio.wait_for(read_message(reader), 5)
            assert stats.as_dict()["storage_errors"] >= 1
            writer.close()
            await writer.wait_closed()

            # Client-level: the write set routes around the wedged
            # server and the record lands on N healthy servers.
            lsn = await log.write(b"after-disk-full")
            await log.force()
            assert victim_sid not in log.write_set
            assert (await log.read(lsn)).data == b"after-disk-full"
            await log.close()

    asyncio.run(main())
