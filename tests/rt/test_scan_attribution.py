"""``read_forward`` returns only what the merged map vouches for.

A server's ReadLog reply jumps over LSNs it does not store — the ones
written while it was out of the write set — and a caller stepping
``records[-1].lsn + 1`` through such a reply would silently skip
acknowledged records.  The scenario (M=3, N=2, δ=4): a write-set
member is down while six records are written (the §5.4 switch puts
them on the other two servers), comes back, and a restarted client
scans the log through it.
"""

from __future__ import annotations

import asyncio

from repro.core.config import ReplicationConfig
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon

CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=4)


def test_a_scan_meets_no_hole_and_no_superseded_copy(tmp_path):
    daemons: dict[str, LogServerDaemon] = {}
    written: dict[int, bytes] = {}

    async def start(sid: str, port: int = 0) -> None:
        daemons[sid] = LogServerDaemon(
            FileLogStore(tmp_path / sid, sid), port=port)
        await daemons[sid].start()

    async def write(log, tag: bytes, count: int) -> None:
        for i in range(count):
            data = b"%s-%d" % (tag, i)
            written[await log.write(data)] = data
        await log.force()

    async def scenario():
        for sid in ("s1", "s2", "s3"):
            await start(sid)
        addresses = {sid: (d.host, d.port) for sid, d in daemons.items()}
        log = AsyncReplicatedLog("c", addresses, CONFIG)
        await log.initialize()
        await write(log, b"first", 6)
        absent, stayed = log.write_set
        await daemons[absent].close()
        await write(log, b"second", 6)  # lands on the other two servers
        (replacement,) = set(log.write_set) - {stayed}
        assert replacement != absent
        await start(absent, addresses[absent][1])
        await daemons[replacement].close()
        await write(log, b"third", 2)   # back on the original pair
        assert set(log.write_set) == {absent, stayed}
        await log.close()

        log = AsyncReplicatedLog("c", addresses, CONFIG)
        await log.initialize()
        merged = log._require_init()
        first, last = min(written), log.end_of_log()
        # the returned server holds the head and the tail of the log
        # but not the middle, and the map says so
        middle = min(lsn for lsn, data in written.items()
                     if data.startswith(b"second"))
        assert absent in merged.servers_for(first)
        assert absent in merged.servers_for(last)
        assert absent not in merged.servers_for(middle)

        for start_lsn in range(first, last + 1):
            lsn = start_lsn
            while lsn <= last:
                records = await log.read_forward(lsn)
                assert records, lsn
                for record in records:
                    assert record.lsn == lsn  # no hole, none skipped
                    assert record.epoch == merged.epoch_of(lsn)
                    if lsn in written and record.present:
                        assert record.data == written[lsn]
                    lsn += 1
            assert lsn == last + 1  # and none past end_of_log()
        await log.close()

    async def main():
        try:
            await scenario()
        finally:
            for daemon in daemons.values():
                try:
                    await daemon.close()
                except Exception:
                    pass

    asyncio.run(main())
