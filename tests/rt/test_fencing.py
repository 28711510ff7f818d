"""Ownership fencing: linearizable handoff between live writers.

The paper restricts each log to one client; these tests cover what
makes *changing* that client safe.  A second process draws a higher
epoch from the Appendix-I generator quorum, installs it as a durable
fence on ≥ M−N+1 servers, and recovers per Section 5.4 — after which
every write set the old writer can reach intersects the fence quorum,
so the old writer is refused (``LogFenced``) before a byte is
appended.

The property test drives a random schedule of ownership events
(plain Section 5.4 restarts, fenced takeovers, daemon bounces) and
checks the two monotonicity invariants everything above rests on:

* the ownership epoch observed by successive owners strictly
  increases, and
* no server's standing fence ever moves backwards — not across
  takeovers, not across a daemon crash/restart.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ReplicationConfig
from repro.core.errors import LogFenced
from repro.rt.client import AsyncReplicatedLog

from .inprocess import Cluster

CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def test_takeover_fences_live_writer(tmp_path):
    """A second client seizes the stream; the first, still connected,
    is refused terminally — and the handoff loses nothing."""
    async def main():
        async with Cluster(tmp_path) as cluster:
            old = AsyncReplicatedLog("c", cluster.addresses(), CONFIG)
            await old.initialize()
            kept = [await old.write(f"old{i}".encode()) for i in range(4)]
            await old.force()
            old_epoch = old.current_epoch

            new = AsyncReplicatedLog("c", cluster.addresses(), CONFIG)
            await new.takeover()
            assert new.current_epoch > old_epoch
            assert new.takeovers_performed == 1
            assert new.fences_installed >= CONFIG.init_quorum

            # The old writer is refused before anything is appended,
            # with the terminal error — not a retryable switch.
            await old.write(b"stale")
            with pytest.raises(LogFenced):
                await old.force()
            assert old.server_switches == 0

            # The new owner still reads every pre-handoff record and
            # keeps the stream live.
            for i, lsn in enumerate(kept):
                assert (await new.read(lsn)).data == f"old{i}".encode()
            lsn = await new.write(b"post-handoff")
            await new.force()
            assert (await new.read(lsn)).data == b"post-handoff"
            await old.close()
            await new.close()

    asyncio.run(main())


def test_fence_survives_daemon_crash(tmp_path):
    """A fenced server that crashes and recovers still refuses the old
    writer — the fence is in the durable log, not daemon memory."""
    async def main():
        async with Cluster(tmp_path) as cluster:
            old = AsyncReplicatedLog("c", cluster.addresses(), CONFIG)
            await old.initialize()
            await old.write(b"pre")
            await old.force()

            new = AsyncReplicatedLog("c", cluster.addresses(), CONFIG)
            await new.takeover()
            await new.close()

            for sid in list(cluster.daemons):
                await cluster.bounce(sid)
            assert min(cluster.fences("c").values()) >= new.current_epoch

            # The old writer reconnects to the recovered daemons (same
            # ports, fresh memory) — and is still refused: the fence
            # came back with the durable log.
            await old.write(b"stale")
            with pytest.raises(LogFenced):
                await old.force()
            await old.close()

    asyncio.run(main())


@settings(max_examples=8, deadline=None)
@given(ops=st.lists(st.sampled_from(["restart", "takeover", "bounce"]),
                    min_size=1, max_size=5))
def test_epochs_strictly_monotone_across_ownership_events(ops, tmp_path_factory):
    """Ownership epochs strictly increase and no server's fence ever
    regresses, under any schedule of restarts/takeovers/bounces."""
    root = tmp_path_factory.mktemp("fence-prop")

    async def main():
        async with Cluster(root) as cluster:
            epochs = []
            fences = cluster.fences("c")

            async def check(log):
                assert not epochs or log.current_epoch > epochs[-1], \
                    (ops, epochs, log.current_epoch)
                epochs.append(log.current_epoch)
                now = cluster.fences("c")
                for sid, fence in now.items():
                    assert fence >= fences[sid], (ops, sid, fences, now)
                fences.update(now)
                # A takeover's fence never exceeds the owner it blessed.
                assert max(now.values()) <= log.current_epoch

            log = AsyncReplicatedLog("c", cluster.addresses(), CONFIG)
            await log.initialize()
            await check(log)
            bounced = 0
            for op in ops:
                if op == "bounce":
                    await cluster.bounce(f"s{bounced % cluster.m + 1}")
                    bounced += 1
                    continue
                await log.write(b"payload")
                await log.force()
                await log.close()
                log = AsyncReplicatedLog("c", cluster.addresses(), CONFIG)
                if op == "takeover":
                    await log.takeover()
                else:
                    await log.initialize()
                await check(log)
            await log.close()

    asyncio.run(main())
