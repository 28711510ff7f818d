"""One conformance suite for the client's procedures, three drivers.

The client's restart, NewID, record-fetch and log-copy repair
procedures are stated once in ``repro.core`` and driven three ways: by
direct calls on server stores, by RPCs inside the simulator, and by
TCP calls to asyncio daemons.  Every scenario below scripts the same
server states under all three and demands the same outcome — the same
``RecoveryResult`` or ``RepairResult`` (or the same error) and the same
sequence of requests and steps — so a driver can differ from the
others only in how a call travels.

A scenario's servers may be *down* (really down, each stack its own
way), and single calls may be *denied* — answered with
``ServerUnavailable`` by a shim wrapped around the procedure, which
also records what the procedure asked and what it got.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.client.log_client import SimLogClient
from repro.core.config import ReplicationConfig
from repro.core.epoch import GeneratorStateRepresentative, new_id
from repro.core.errors import NotEnoughServers, ServerUnavailable, StaleEpoch
from repro.core.records import StoredRecord
from repro.core.store import LogServerStore, store_performer
from repro.core.procedure import (
    ACK,
    COPY,
    GEN_READ,
    GEN_WRITE,
    INSTALL,
    INTERVAL_LIST,
    READ,
    Call,
    run,
)
from repro.core.recovery import fetch_record, restart
from repro.core.repair import RepairResult, repair
from repro.net.lan import Lan
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon
from repro.server.log_server import SimLogServer
from repro.sim.kernel import Simulator

CLIENT = "c1"
SERVERS = ("s1", "s2", "s3")
CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=2)


@dataclasses.dataclass(frozen=True)
class Scenario:
    name: str
    #: (server, lsn, epoch, data) records already stored, in write
    #: order; ``data`` None stores a not-present guard.
    stored: tuple[tuple[str, int, int, bytes | None], ...] = ()
    #: generator-representative values, by server.
    generator: tuple[tuple[str, int], ...] = ()
    down: tuple[str, ...] = ()
    #: (server, op) calls answered with ServerUnavailable.
    denied: tuple[tuple[str, str], ...] = ()
    #: ``(survivors, target, copies)``: run the Section 5.3 repair
    #: instead of a restart.
    repair: tuple[tuple[str, ...], str, int] | None = None


def _log(servers, lsns, epoch=1):
    return tuple((sid, lsn, epoch, b"r%d" % lsn)
                 for lsn in lsns for sid in servers)


def _guards(servers, lsns, epoch):
    return tuple((sid, lsn, epoch, None) for lsn in lsns for sid in servers)


SCENARIOS = [
    Scenario("empty log"),
    Scenario("clean log",
             stored=_log(("s1", "s2"), range(1, 6)),
             generator=(("s1", 1), ("s2", 1))),
    Scenario("partial tail on 1 of N",
             stored=_log(("s1", "s2"), range(1, 4)) + _log(("s1",), [4]),
             generator=(("s1", 1), ("s2", 1))),
    Scenario("one server down",
             stored=_log(("s1", "s2"), range(1, 4)) + _log(("s1",), [4]),
             generator=(("s1", 1), ("s2", 1)), down=("s1",)),
    Scenario("gather quorum shortfall",
             stored=_log(("s1", "s2"), range(1, 4)),
             down=("s3",), denied=(("s2", INTERVAL_LIST),)),
    Scenario("generator read quorum shortfall",
             denied=(("s1", GEN_READ), ("s3", GEN_READ))),
    Scenario("generator write quorum shortfall",
             denied=(("s1", GEN_WRITE), ("s2", GEN_WRITE))),
    Scenario("install target fails between copy and install",
             stored=_log(("s1", "s2"), range(1, 3)),
             generator=(("s1", 1), ("s2", 1)),
             denied=(("s1", INSTALL),)),
    Scenario("install quorum shortfall",
             denied=(("s1", COPY), ("s3", INSTALL))),
    Scenario("generator behind the log",
             stored=_log(("s1", "s2"), range(1, 3), epoch=3)),
    # Section 5.3: s2, in the write set, lost its disk; s3 is the empty
    # replacement.  s2 is asked for its list too, and does not answer.
    Scenario("repair onto an empty replacement",
             stored=_log(("s1", "s2"), range(1, 5)), down=("s2",),
             repair=(("s1", "s2"), "s3", 2)),
    # A restart at epoch 2 copied LSNs 2–3 (δ = 2) and wrote guards at
    # 4 and 5: one CopyLog + InstallCopies per epoch, the lower first.
    Scenario("repair across two epochs with guards",
             stored=_log(("s1", "s2"), range(1, 4))
             + _log(("s1", "s2"), [2, 3], epoch=2)
             + _guards(("s1", "s2"), [4, 5], epoch=2)
             + _log(("s1", "s2"), [6], epoch=2),
             down=("s2",), repair=(("s1", "s2"), "s3", 2)),
    Scenario("repair with its only holder denied a read",
             stored=_log(("s1", "s2"), range(1, 4)), down=("s2",),
             denied=(("s1", READ),), repair=(("s1", "s2"), "s3", 2)),
]


def observed(procedure, trace, denied):
    """``procedure``, recording what it asks and gets; denying some calls."""
    value = failure = None
    while True:
        try:
            request = (procedure.send(value) if failure is None
                       else procedure.throw(failure))
        except StopIteration as stop:
            return stop.value
        value = failure = None
        if isinstance(request, Call) and \
                (request.server_id, request.op) in denied:
            trace.append((request, "denied"))
            failure = ServerUnavailable(request.server_id, "denied")
            continue
        try:
            value = yield request
        except ServerUnavailable as exc:
            trace.append((request, "unavailable"))
            failure = exc
        else:
            trace.append((request, "ok"))


def the_procedure(scenario, trace):
    """Restart, then fetch every record the recovered map routes to —
    or, for a repair scenario, the repair."""

    def body():
        result = yield from restart(
            CONFIG, new_id(SERVERS),
            gather_order=SERVERS, install_order=SERVERS,
        )
        fetched = []
        for lsn in result.merged.lsns():
            fetched.append((yield from fetch_record(result.merged.entry(lsn))))
        return result, fetched

    procedure = body() if scenario.repair is None \
        else repair(*scenario.repair)
    return observed(procedure, trace, set(scenario.denied))


def summarize(outcome):
    if isinstance(outcome, RepairResult):
        return outcome
    result, fetched = outcome
    as_tuple = lambda r: (r.lsn, r.epoch, r.present, r.kind, r.data)
    return {
        "epoch": result.epoch,
        "next_lsn": result.next_lsn,
        "write_set": result.write_set,
        "init_servers": result.init_servers,
        "staged": [as_tuple(r) for r in result.staged],
        "segments": result.merged.segments(),
        "fetched": [as_tuple(r) for r in fetched],
    }


def _records(scenario, server_id):
    return [StoredRecord(lsn=lsn, epoch=epoch, data=data)
            if data is not None else
            StoredRecord(lsn=lsn, epoch=epoch, present=False, kind="guard")
            for sid, lsn, epoch, data in scenario.stored if sid == server_id]


# -- the three drivers ---------------------------------------------------


def run_direct(scenario, trace, tmp_path):
    stores = {sid: LogServerStore(sid) for sid in SERVERS}
    reps = {sid: GeneratorStateRepresentative(sid) for sid in SERVERS}
    for sid in SERVERS:
        for record in _records(scenario, sid):
            stores[sid].server_write_record(CLIENT, record)
    for sid, value in scenario.generator:
        reps[sid].write(value)
    for sid in scenario.down:
        stores[sid].crash()
        reps[sid].crash()
    log_call = store_performer(stores, CLIENT)

    def perform(call):
        if call.op == GEN_READ:
            return reps[call.server_id].read()
        if call.op == GEN_WRITE:
            reps[call.server_id].write(*call.args)
            return ACK
        return log_call(call)

    return run(the_procedure(scenario, trace), perform)


def run_sim(scenario, trace, tmp_path):
    sim = Simulator()
    lan = Lan(sim)
    servers = {sid: SimLogServer(sim, lan, sid) for sid in SERVERS}
    for sid in SERVERS:
        for record in _records(scenario, sid):
            servers[sid].store.server_write_record(CLIENT, record)
    for sid, value in scenario.generator:
        servers[sid].generator_rep.write(value)
    for sid in scenario.down:
        servers[sid].crash()
    client = SimLogClient(sim, lan, CLIENT, list(SERVERS), CONFIG, None)
    proc = sim.spawn(client._drive(the_procedure(scenario, trace)))
    sim.run(until=120)
    assert proc.triggered, "procedure did not finish in simulated time"
    return proc.value  # re-raises what the procedure raised


def run_asyncio(scenario, trace, tmp_path):
    async def main():
        daemons = {}
        for sid in SERVERS:
            store = FileLogStore(tmp_path / sid, sid)
            for record in _records(scenario, sid):
                store.append_record(CLIENT, record, fsync=False)
            daemons[sid] = LogServerDaemon(store)
            await daemons[sid].start()
        for sid, value in scenario.generator:
            daemons[sid].store.generator_write(value)
        addresses = {sid: (d.host, d.port) for sid, d in daemons.items()}
        for sid in scenario.down:
            await daemons[sid].close()
        log = AsyncReplicatedLog(CLIENT, addresses, CONFIG, timeout=2.0)
        try:
            await log._ensure_connections()
            return await log._drive(the_procedure(scenario, trace))
        finally:
            await log.close()
            for daemon in daemons.values():
                await daemon.close()

    return asyncio.run(main())


DRIVERS = {"direct": run_direct, "sim": run_sim, "asyncio": run_asyncio}


def outcome_under(driver, scenario, tmp_path):
    trace = []
    try:
        outcome = summarize(DRIVERS[driver](scenario, trace, tmp_path / driver))
    except (NotEnoughServers, StaleEpoch) as exc:
        outcome = type(exc)
    return outcome, trace


@pytest.fixture(params=SCENARIOS, ids=lambda s: s.name)
def outcomes(request, tmp_path):
    return request.param, {
        driver: outcome_under(driver, request.param, tmp_path)
        for driver in DRIVERS
    }


def test_three_drivers_agree(outcomes):
    scenario, by_driver = outcomes
    reference, reference_trace = by_driver["direct"]
    assert reference_trace, "the procedure made no request"
    for driver in ("sim", "asyncio"):
        outcome, trace = by_driver[driver]
        assert outcome == reference, driver
        assert trace == reference_trace, driver


EXPECTED = {
    "empty log": dict(epoch=1, next_lsn=3, write_set=("s1", "s2")),
    "clean log": dict(epoch=2, next_lsn=8, write_set=("s1", "s2")),
    # LSN 4 reached one server; it is in the merged list, so restart
    # completes the write: copied (with 3) to N servers under epoch 2.
    "partial tail on 1 of N": dict(epoch=2, next_lsn=7),
    # Its only holder is down: LSN 4 is masked by the guards at 4 and 5.
    "one server down": dict(epoch=2, next_lsn=6, write_set=("s2", "s3"),
                            init_servers=("s2", "s3")),
    "gather quorum shortfall": NotEnoughServers,
    "generator read quorum shortfall": NotEnoughServers,
    "generator write quorum shortfall": NotEnoughServers,
    "install target fails between copy and install":
        dict(epoch=2, write_set=("s2", "s3")),
    "install quorum shortfall": NotEnoughServers,
    "generator behind the log": StaleEpoch,
    "repair onto an empty replacement": RepairResult(
        target_server="s3", records_copied=4, bytes_copied=8,
        lsns_repaired=(1, 2, 3, 4)),
    "repair across two epochs with guards": RepairResult(
        target_server="s3", records_copied=6, bytes_copied=8,
        lsns_repaired=(1, 2, 3, 4, 5, 6)),
    "repair with its only holder denied a read": NotEnoughServers,
}


def test_direct_outcome_is_the_papers(outcomes):
    scenario, by_driver = outcomes
    outcome, _trace = by_driver["direct"]
    expected = EXPECTED[scenario.name]
    if isinstance(expected, RepairResult):
        assert outcome == expected
    elif isinstance(expected, dict):
        assert {k: outcome[k] for k in expected} == expected
    else:
        assert outcome is expected


def test_partial_tail_is_completed_or_masked(tmp_path):
    completed, _ = outcome_under("direct", SCENARIOS[2], tmp_path)
    assert (4, 2, True, "data", b"r4") in completed["staged"]
    assert (4, 2, True, "data", b"r4") in completed["fetched"]
    masked, _ = outcome_under("direct", SCENARIOS[3], tmp_path)
    assert (4, 2, False, "guard", b"") in masked["staged"]


def test_repair_copies_and_installs_once_per_epoch_lowest_first(tmp_path):
    (scenario,) = [s for s in SCENARIOS
                   if s.name == "repair across two epochs with guards"]
    _, trace = outcome_under("direct", scenario, tmp_path)
    to_target = [(call.op, call.args[0], [r.lsn for r in call.args[1]]
                  if call.op == COPY else None)
                 for call, _ in trace
                 if isinstance(call, Call) and call.server_id == "s3"]
    assert to_target == [(COPY, 1, [1]), (INSTALL, 1, None),
                         (COPY, 2, [2, 3, 4, 5, 6]), (INSTALL, 2, None)]
