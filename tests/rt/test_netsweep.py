"""The network crash-sweep phase (:mod:`repro.harness.netsweep`).

Grammar-level coverage runs in-process; the replay tests drive real
``repro serve`` daemons through a proxy fleet via the public
:func:`~repro.harness.crashsweep.run_crashsweep` entry point, exactly
as ``repro crashsweep --point net...`` / ``--plan ...`` would.
"""

from __future__ import annotations

import asyncio
import os
import random

import pytest

from repro.harness.crashsweep import SweepConfig, run_crashsweep
from repro.harness.netsweep import draw_fuzz_plan
from repro.harness.oracle import History
from repro.harness.sweep import SWEEP_CONFIG, Run, holdings, reached, \
    record, run_workload, sweep_client, verify_restart
from repro.net.codec import frame_new_high_lsn
from repro.net.messages import MissingIntervalMsg, NewIntervalMsg
from repro.rt.chaosproxy import ProxyFleet
from repro.rt.client import AsyncReplicatedLog
from repro.rt.cluster import LoopbackCluster
from repro.rt.faultfs import FaultInjector, PowerLoss
from repro.rt.faultspec import FaultSpec, FaultSpecError, by_target, \
    parse_plan, plan_text, trace_points
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon

from .inprocess import Cluster

SITES = {"net.writelog.c2s": 3, "net.forcelog.c2s": 3,
         "net.newhighlsn.s2c": 3, "net.ack.s2c": 3,
         "net.copylog.c2s": 1}

#: a recording's targeted points: the frame sites above on every
#: proxy, two storage sites on every daemon, two client sites.
TRACE = tuple(
    FaultSpec(site, index, target=sid)
    for sid in ("s1", "s2", "s3")
    for site, count in (*SITES.items(), ("log.fsync", 4),
                        ("log.write.fence", 1))
    for index in range(count)) + tuple(
    FaultSpec(site, index) for site, count in
    (("client.force.ack", 3), ("client.handoff.epoch", 1))
    for index in range(count))


def _reach_all(plan):
    """A recording in which every armed spec fires and the trace does
    not move."""
    return True, TRACE


# -- composite plan grammar --------------------------------------------------


def test_composite_plan_routes_all_three_families():
    text = ("net.writelog.c2s:1:drop,"
            "s2@log.fsync:2:power-loss,"
            "log.write.record:0:eio,"
            "client.force.ack:0:raise")
    plan = parse_plan(text)
    assert [spec.family for spec in plan] \
        == ["net", "storage", "storage", "client"]
    storage = [spec for spec in plan if spec.family == "storage"]
    assert {sid: plan_text(specs)
            for sid, specs in by_target(storage, "s1").items()} == {
        "s1": "log.write.record:0:eio",    # storage defaults to s1
        "s2": "s2@log.fsync:2:power-loss",
    }
    # The plan text round-trips through the parser.
    assert plan_text(plan) == text
    assert parse_plan(plan_text(plan)) == plan


@pytest.mark.parametrize("bad,bad_token", [
    ("", ""),
    ("net.writelog.c2s:0:drop,", ""),              # trailing empty token
    ("s1@client.force.ack:0:raise",                # client fault routed
     "s1@client.force.ack:0:raise"),
    ("net.writelog.c2s:0:drop,net.writelog.c2s:0:delay",  # dup point
     "net.writelog.c2s:0"),
    ("@log.fsync:0:power-loss",                    # empty server id
     "@log.fsync:0:power-loss"),
    ("net.writelog.c2s:0:power-loss", "power-loss"),  # storage action on net
])
def test_composite_plan_rejects_malformed(bad, bad_token):
    with pytest.raises(FaultSpecError) as excinfo:
        parse_plan(bad)
    assert excinfo.value.token == bad_token


def test_fuzz_plans_are_seed_deterministic():
    for seed in range(5):
        a = draw_fuzz_plan(random.Random(seed), _reach_all)
        b = draw_fuzz_plan(random.Random(seed), _reach_all)
        assert a == b
        assert 2 <= len(a) <= 4
        # Every drawn plan replays through the parser unchanged.
        assert parse_plan(plan_text(a)) == a
        # ... and arms only points the recording reached there.
        for spec in a:
            assert FaultSpec(spec.site, spec.index,
                             target=spec.target) in TRACE


def test_fuzz_plan_strings_are_pinned():
    """The seed fixes the RNG draw order, so a plan string is a stable
    replay key over one recording.  Re-pinned when the planner began
    drawing from recorded points on every target: the plans of the
    blind planner are kept as a regression list in
    ``benchmarks/bench_crashsweep.py``."""
    assert {seed: plan_text(draw_fuzz_plan(random.Random(seed),
                                           _reach_all))
            for seed in (0, 5, 6, 7)} == {
        0: "s1@log.write.fence:0:eio,"
           "client.handoff.epoch:0:raise,client.force.ack:2:raise",
        5: "s3@net.forcelog.c2s:2:drop,client.force.ack:2:raise,"
           "client.force.ack:1:raise,client.handoff.epoch:0:raise",
        6: "s3@net.writelog.c2s:1:partition-after,"
           "s2@net.ack.s2c:1:corrupt-header,"
           "client.handoff.epoch:0:raise,client.force.ack:2:raise",
        7: "client.handoff.epoch:0:raise,client.force.ack:1:raise,"
           "client.force.ack:0:raise",
    }


def test_a_spec_is_drawn_only_if_every_earlier_spec_still_fires():
    """Spec k+1 comes from the recording with specs 1..k armed, and a
    candidate whose recording misses an armed spec is redrawn."""
    asked = []

    def reach(plan):
        asked.append(plan)
        # Arming anything on s2 diverts the run: nothing fires.
        return not any(spec.target == "s2" for spec in plan), TRACE

    for seed in range(20):
        plan = draw_fuzz_plan(random.Random(seed), reach)
        assert plan and all(spec.target != "s2" for spec in plan)
    assert asked[0] == ()
    assert any(spec.target == "s2" for plan in asked for spec in plan)


# -- live runs over real daemons --------------------------------------------


def test_verify_restart_accepts_the_honest_journal(tmp_path):
    """One stream's honest history over three real daemons: the restart
    observes every write by point reads and by the forward scan, and
    :func:`check` finds every promise kept.  (The per-promise doctored
    histories are daemon-free: ``tests/harness/test_oracle.py``.)"""
    from repro.rt.client import AsyncReplicatedLog

    history = History()

    async def workload(addresses):
        log = AsyncReplicatedLog("v0", addresses, SWEEP_CONFIG, timeout=3.0)
        await log.initialize()
        history.epoch(log)
        try:
            for i in range(6):
                await history.write(log, f"v0.{i}".encode())
            await history.force(log)
        finally:
            await log.close()

    with LoopbackCluster(str(tmp_path), num_servers=3) as cluster:
        asyncio.run(workload(cluster.addresses()))
        assert asyncio.run(verify_restart(
            cluster.addresses(), "v0", SWEEP_CONFIG, history)) == []
    observed = history.events[-1]
    assert observed["op"] == "observe"
    present = {lsn: got for lsn, got in observed["read"].items() if got}
    assert len(present) == 8   # six writes and the restart's two
    assert observed["scan"].items() >= present.items()


def test_only_a_lost_writelog_draws_missing_interval(tmp_path):
    """A clean run of the workload crosses s1's proxy without one
    MissingInterval; dropping the bulk transaction's first WriteLog to
    s1 makes the next batch skip ahead, s1 NAKs the gap and stores
    nothing past it, the client re-sends the lost records in place — a
    ForceLog from the gap on, no NewInterval, no server switch — and
    every promise, ``acked-on-N`` included, still holds."""

    async def dropped(cluster, run):
        fleet = ProxyFleet(cluster.addresses(),
                           plans=parse_plan("net.writelog.c2s:0:drop"),
                           record=True)
        await fleet.start()
        try:
            await run_workload(fleet.addresses(), "w1", SWEEP_CONFIG, run)
            return ([point.site for point in
                     trace_points(fleet.proxies["s1"].trace)],
                    len(fleet.fired))
        finally:
            await fleet.close()

    clean = {point.site for point in reached(
        record(tmp_path / "record", SWEEP_CONFIG)[1], "net", "s1")}
    assert "net.writelog.c2s" in clean
    with LoopbackCluster(str(tmp_path / "cluster"),
                         num_servers=3) as cluster:
        assert not {"net.missinginterval.s2c",
                    "net.newinterval.c2s"} & clean
        run = Run()
        sites, fired = asyncio.run(dropped(cluster, run))
        assert fired == 1 and run.completed
        assert run.switches == 0
        nak = sites.index("net.missinginterval.s2c")
        assert "net.forcelog.c2s" in sites[nak:]
        assert "net.newinterval.c2s" not in sites
        # Every bulk record reached s1 after all: the re-send filled
        # the gap where the lost batch would have put it.
        bulk = {event["lsn"]: event["data"] for event in run.history.events
                if event["op"] == "lsn"
                and bytes.fromhex(event["data"]).startswith(b"bulk:")}
        held = asyncio.run(holdings(cluster.addresses(), "w1"))["s1"]
        assert {lsn: held.get(lsn) for lsn in bulk} == bulk
        assert asyncio.run(verify_restart(
            cluster.addresses(), "w1", SWEEP_CONFIG, run.history)) == []


class AcksOverGap(LogServerDaemon):
    """A daemon that NAKs a gap and then stores and acks the batch past
    it all the same."""

    def _on_write(self, msg, images=None):
        out = super()._on_write(msg, images)
        if out and isinstance(out[0], MissingIntervalMsg):
            self._expected[msg.client_id] = msg.low_lsn
            out += super()._on_write(msg, images)
        return out

    def _park_force(self, msg, writer, images=None):
        naks = [reply for reply in self._on_write(msg, images)
                if isinstance(reply, MissingIntervalMsg)]
        # Stored now, so the force parks like a duplicate.
        return naks + super()._park_force(msg, writer, images)


def _answer_with_new_interval(self, server_id, msg):
    """A NAK answer that only moves the server's interval on."""
    self._conns[server_id].try_send(NewIntervalMsg(
        self.client_id, self._epoch, starting_lsn=msg.hi + 1))


def test_acked_on_n_catches_a_daemon_that_acks_over_a_gap(
        tmp_path, monkeypatch):
    """Forces carry only what each server has not been sent, so a
    daemon that acks past a lost WriteLog — with the NAK answered by
    NewInterval alone — acks records it never stored.  Two more
    transactions push them below the δ records a restart copies, so
    one copy stays and still reads back: only ``acked-on-N`` fails, on
    the lost batch's LSNs."""
    monkeypatch.setattr(AsyncReplicatedLog, "_on_missing",
                        _answer_with_new_interval)

    async def main():
        async with Cluster(tmp_path, daemon_cls=AcksOverGap) as cluster:
            fleet = ProxyFleet(cluster.addresses(),
                               plans=parse_plan("net.writelog.c2s:0:drop"))
            await fleet.start()
            run = Run()
            log = sweep_client(fleet.addresses(), "g1", SWEEP_CONFIG)
            try:
                await log.initialize()
                run.history.epoch(log)
                for i in range(SWEEP_CONFIG.delta - 1):
                    await run.history.write(log, b"bulk:%d:" % i + b"b" * 1000)
                await run.force(log)
                for txn in range(2):
                    await run.commit_et1(log, txn)
            finally:
                await log.close()
                await fleet.close()
            assert len(fleet.fired) == 1
            return await verify_restart(cluster.addresses(), "g1",
                                        SWEEP_CONFIG, run.history)

    errors = asyncio.run(main())
    assert errors == [f"acked-on-N: acked lsn {lsn} is held by 1 of 2 "
                      f"servers (s2)" for lsn in (9, 10)]


class AcksBeforeFsync(LogServerDaemon):
    """A daemon that acks a force as soon as its records are appended,
    before the group fsync that would cover them."""

    def _park_force(self, msg, writer, images=None):
        out = self._on_write(msg, images)
        if not out:
            self._write_frames_safely(writer, [
                frame_new_high_lsn(msg.client_id, msg.high_lsn)])
        return out


class PowerCutCluster(Cluster):
    """s1 is an :class:`AcksBeforeFsync` whose store loses power at its
    first group fsync; s2 and s3 are honest."""

    async def start(self, sid: str, port: int = 0) -> LogServerDaemon:
        if sid != "s1":
            return await super().start(sid, port)
        io = FaultInjector(parse_plan("log.group-fsync:0:power-loss"))
        daemon = AcksBeforeFsync(
            FileLogStore(os.path.join(self.root, sid), sid, io=io),
            port=port)
        await daemon.start()
        self.daemons[sid] = daemon
        return daemon


def test_acked_on_n_catches_a_daemon_that_acks_before_its_fsync(tmp_path):
    """s1 acks every force before an fsync covers it, then loses power
    at the group fsync that comes too late: its log reverts to the last
    barrier (the :class:`FaultInjector` power-loss semantics) and every
    record forced since is gone from it.  s2 still holds them, so they
    read back after a restart: only ``acked-on-N`` fails, on exactly
    the records s1 acked and lost."""

    async def main():
        async with PowerCutCluster(tmp_path) as cluster:
            run = Run()
            log = sweep_client(cluster.addresses(), "p1", SWEEP_CONFIG)
            try:
                await log.initialize()
                run.history.epoch(log)
                for i in range(SWEEP_CONFIG.delta - 1):
                    await run.history.write(log, b"bulk:%d:" % i + b"b" * 1000)
                await run.force(log)
                for txn in range(2):
                    await run.commit_et1(log, txn)
                assert log.write_set == ("s1", "s2")
            finally:
                await log.close()
            forced = await holdings(cluster.addresses(), "p1")
            s1 = cluster.daemons.pop("s1")
            with pytest.raises(PowerLoss):
                s1.store.sync(site="log.group-fsync")
            await s1.close()
            await cluster.start("s1", port=s1.port)
            lost = sorted(set(forced["s1"]) - set(
                (await holdings(cluster.addresses(), "p1"))["s1"]))
            return lost, await verify_restart(
                cluster.addresses(), "p1", SWEEP_CONFIG, run.history)

    lost, errors = asyncio.run(main())
    # every record after the restart's δ guards, which it synced
    assert lost == list(range(SWEEP_CONFIG.delta + 1, 30))
    assert errors == [f"acked-on-N: acked lsn {lsn} is held by 1 of 2 "
                      f"servers (s2)" for lsn in lost]


# -- replay paths against real daemons ---------------------------------------


def test_replay_single_net_case(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="net.forcelog.c2s:0:drop"))
    (case,) = report.cases("net")
    assert case.hit, "the armed frame point never fired"
    assert case.ok, case.errors
    assert report.failures == []


def test_replay_partition_switch_case(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path),
        point="net.newhighlsn.s2c:0:partition-after"))
    (case,) = report.cases("net")
    assert case.hit and case.ok, case.errors


def test_replay_composite_plan(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path),
        plan="net.writelog.c2s:0:drop,client.force.ack:0:raise"))
    (case,) = report.cases("fuzz")
    assert case.ok, case.errors


def test_fuzz_smoke_is_green_and_counted(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), phases=(), fuzz=2, seed=0))
    assert len(report.cases("fuzz")) == 2
    assert report.failures == []
    assert report.cases_run == 2
    # The net sweep itself was not requested, only fuzz — but the
    # recording the fuzzer drew from is still reported, as its own.
    assert report.cases("net") == []
    assert report.phase("fuzz").points > report.phase("net").points == 0


def test_a_fuzz_case_is_hit_only_when_every_armed_spec_fires(tmp_path):
    """The frame fault fires on the first ForceLog; the storage fault
    is armed at an index the workload never reaches.  One fired fault
    is not the case: it tested nothing of the other."""
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path),
        plan="s1@net.forcelog.c2s:0:delay,s2@log.write.record:9999:eio"))
    (case,) = report.cases("fuzz")
    assert not case.hit
    assert case.ok, case.errors
