"""Deterministic crash-point sweep over the real runtime's durable store.

The paper's durability contract (§3.1) is *per crash point*: every
acked record must survive a restart no matter where the crash lands
between two I/O operations.  This harness checks that literally:

1. **Enumerate** — run a scripted workload (appends + group forces,
   generator writes, §5.3 truncation with and without compaction, a
   CopyLog/InstallCopies cycle, a cross-client group-commit fsync at
   site ``log.group-fsync``) against a :class:`FileLogStore` whose
   I/O backend is a *recording* :class:`~repro.rt.faultfs.FaultInjector`;
   every ``site:index`` pair hit is one crash point.
2. **Sweep** — re-run the same workload once per (point, action) in a
   fresh directory with that point armed: power loss (all files revert
   to their last fsync barrier, pending directory ops roll back),
   short write (the torn half-write survives), EIO/ENOSPC (the wedge
   path), or a payload bit flip (the CRC path).
3. **Verify** — reopen with the passthrough backend and check the
   durability invariants: every durable-acked record is readable with
   exact epoch/present/data/kind (unless reclaimed by an acked
   truncation), nothing not written is ever surfaced, the truncation
   mark is monotone and bounded by what was attempted, InstallCopies
   is all-or-nothing, the generator value never regresses, the
   append-forest agrees with the log, and the reopened store accepts
   and persists further appends.

Bit flips are *silent corruption* — fsync succeeded but the disk lied —
so durability of later acks is unprovable by design; those cases check
the weaker contract that recovery never surfaces corrupt data (the
CRC rejects the entry and ends the valid prefix).  Flips in the
advisory forest index must not weaken anything: the log is
authoritative, so the full invariants still apply there.

The **daemon phase** repeats a subset against a real ``repro serve``
process: the armed daemon dies with exit status 86 mid-workload
(``--fault-plan``), is restarted without the plan, and a fresh client
must read back every wire-acked LSN.  Its combined cases arm
multi-fault plans — e.g. a torn ``compact.write`` whose corruption
must stay invisible because power is lost before the covering
``compact.rename`` installs it.

The **client phase** turns the same idea on the *protocol*: a scripted
ET1-style workload runs in a separate worker process
(:mod:`repro.harness.clientworker`) against three real ``repro serve``
daemons and is killed — exit 86 or SIGKILL — at every enumerated
protocol crash point of :mod:`repro.rt.clientfault`: after a WriteLog
batch is streamed, around ForceLog acknowledgments (including after a
*partial* ack), mid write-set switch, and between each step of the
§5.4 restart.  A **second OS process** then runs the full §5.4 restart
and the harness checks the journals: nothing fabricated, every acked
record durable with its exact payload, the epoch strictly monotone,
and a third process re-running recovery reproducing the identical
final state (window-replay idempotence).  Combined client cases arm a
server storage fault and a client kill in the same run, so recovery
itself executes against a crashing cluster.

The network, partition-switch, handoff and fuzz phases live in
:mod:`repro.harness.netsweep`.  Every phase is a
:class:`~repro.harness.sweep.Phase` run by the one loop in
:mod:`repro.harness.sweep`; every armed fault is a
:class:`~repro.rt.faultspec.FaultSpec` of the one grammar.

Everything is deterministic given ``seed`` (which varies the record
payloads); ``repro crashsweep --seed S --point SITE:IDX[:ACTION]``
replays one failing case.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.config import ReplicationConfig
from ..core.errors import LogError, StorageError
from ..core.records import StoredRecord
from ..storage.append_forest import AppendForestError
from ..rt import clientfault
from ..rt.cluster import LoopbackCluster
from ..rt.faultfs import FAULT_EXIT_CODE, FaultInjector, PowerLoss
from ..rt.faultspec import (
    FaultSpecError,
    by_target,
    parse_plan,
    plan_text,
    read_trace,
    trace_points,
)
from ..rt.filestore import FileLogStore
from .sweep import (
    ClientJournal,
    CrashCase,
    Phase,
    PhaseResult,
    Plan,
    by_site,
    first_and_last,
    run_phase,
    verify_restart,
)

#: sites whose payload can be torn or bit-flipped (the others degrade
#: crash-shaped actions to a plain power loss).
_WRITE_SITES = ("log.write.", "compact.write", "forest.write")

#: the phases ``SweepConfig.phases`` can name, in running order.
#: ``net`` brings the curated partition-switch and handoff phases with
#: it; the fuzz phase is requested by ``SweepConfig.fuzz``.
PHASES = ("storage", "daemon", "client", "net")


@dataclass
class SweepReport:
    """What one ``repro crashsweep`` invocation did and found."""

    seed: int = 0
    quick: bool = False
    #: phase name → its result, in running order.
    phases: dict[str, PhaseResult] = field(default_factory=dict)
    duration_s: float = 0.0

    def phase(self, name: str) -> PhaseResult:
        """The named phase's result (empty if it did not run)."""
        return self.phases.get(name, PhaseResult())

    def cases(self, *names: str) -> list[CrashCase]:
        """The cases of the named phases (all phases if none named)."""
        return [case for name, result in self.phases.items()
                if not names or name in names for case in result.cases]

    @property
    def failures(self) -> list[CrashCase]:
        return [case for case in self.cases() if not case.ok]

    @property
    def cases_run(self) -> int:
        return len(self.cases())

    def as_dict(self) -> dict:
        storage, daemon, client = (self.phase(name) for name in
                                   ("storage", "daemon", "client"))
        # The fuzzer draws from the frame enumeration too; report it
        # even when the net sweep itself was not requested.
        net = self.phase("net" if "net" in self.phases else "fuzz")

        def dicts(*names: str) -> list[dict]:
            return [case.as_dict() for case in self.cases(*names)]

        return {
            "seed": self.seed,
            "quick": self.quick,
            "points_enumerated": storage.points,
            "sites": dict(sorted(storage.sites.items())),
            "cases_run": self.cases_run,
            "daemon_points_enumerated": daemon.points,
            "daemon_cases": dicts("daemon"),
            "client_points_enumerated": client.points,
            "client_sites": dict(sorted(client.sites.items())),
            "client_cases": dicts("client"),
            "combined_cases_run": daemon.combined + client.combined,
            "net_points_enumerated": net.points,
            "net_sites": dict(sorted(net.sites.items())),
            "net_cases": dicts("net", "partition", "handoff"),
            "net_partition_cases": len(self.cases("partition")),
            "net_handoff_cases": len(self.cases("handoff")),
            "fuzz_cases": dicts("fuzz"),
            "failures": [case.as_dict() for case in self.failures],
            "duration_s": round(self.duration_s, 3),
        }


@dataclass
class SweepConfig:
    """Knobs for :func:`run_crashsweep`."""

    root_dir: str = ""
    seed: int = 0
    #: sweep a bounded subset of points (first/last index per site)
    #: with power-loss everywhere plus one torn/flip/EIO case per
    #: write site — the CI smoke shape.
    quick: bool = False
    #: replay exactly one case: ``site:index`` or ``site:index:action``
    #: (the action defaults per family: power-loss, exit, drop).
    point: str | None = None
    #: which of :data:`PHASES` to run.
    phases: tuple[str, ...] = PHASES
    #: also run N seeded multi-fault fuzz cases composing network,
    #: storage, and client faults (``repro crashsweep --fuzz N``).
    fuzz: int = 0
    #: replay one composite fuzz plan verbatim
    #: (``repro crashsweep --plan SPEC``).
    plan: str | None = None


# -- the scripted workload ---------------------------------------------------


def _payloads(seed: int) -> dict:
    """Deterministic payload bytes per (client, lsn, epoch)."""
    rng = random.Random(seed)
    table = {}
    for cid, lsns, epoch in (("cw", range(1, 23), 1),
                             ("cr", range(1, 5), 1),
                             ("cr", range(1, 4), 2),
                             ("cw", range(23, 25), 1),
                             ("cr", range(5, 7), 2)):
        for lsn in lsns:
            table[(cid, lsn, epoch)] = (
                f"{cid}.{lsn}.{epoch}.".encode()
                + bytes(rng.randrange(256) for _ in range(rng.randrange(8, 40)))
            )
    return table


def _rec(payloads, cid: str, lsn: int, epoch: int = 1) -> StoredRecord:
    return StoredRecord(lsn=lsn, epoch=epoch, present=True,
                        data=payloads[(cid, lsn, epoch)], kind="data")


def _tup(record: StoredRecord) -> tuple:
    return (record.epoch, record.present, record.data, record.kind)


class _Journal:
    """What the workload was told is durable, and everything it tried."""

    def __init__(self):
        self.attempted: dict[tuple[str, int], set] = {}
        self.durable: dict[tuple[str, int], tuple] = {}
        self.durable_mark: dict[str, int] = {}
        self.attempted_mark: dict[str, int] = {}
        self.durable_gen = 0
        self.attempted_gen = 0
        self.staged_lsns: list[int] = []
        self.install_acked = False

    def attempt(self, cid: str, record: StoredRecord) -> None:
        self.attempted.setdefault((cid, record.lsn), set()).add(_tup(record))

    def ack_records(self, cid: str, records) -> None:
        for record in records:
            self.durable[(cid, record.lsn)] = _tup(record)

    def ack_truncate(self, cid: str, mark: int) -> None:
        self.durable_mark[cid] = max(self.durable_mark.get(cid, 0), mark)
        for (c, lsn) in [k for k in self.durable
                         if k[0] == cid and k[1] < mark]:
            del self.durable[(c, lsn)]


def _store_workload(store: FileLogStore, journal: _Journal,
                    payloads: dict) -> None:
    """The fixed script every sweep case replays.

    The journal is updated only *after* each store call returns — a
    call interrupted by the injected crash was never acknowledged and
    carries no durability promise (its records stay in ``attempted``).
    """
    # Steady appends with group forces (WriteLog ... ForceLog).
    for base in (0, 5, 10):
        batch = tuple(_rec(payloads, "cw", base + i + 1) for i in range(5))
        for record in batch:
            journal.attempt("cw", record)
        store.append_records("cw", batch, fsync=True)
        journal.ack_records("cw", batch)
    # The Appendix I generator representative.
    journal.attempted_gen = 41
    store.generator_write(41)
    journal.durable_gen = 41
    # A second client (the CopyLog/InstallCopies subject).
    batch = tuple(_rec(payloads, "cr", i) for i in range(1, 5))
    for record in batch:
        journal.attempt("cr", record)
    store.append_records("cr", batch, fsync=True)
    journal.ack_records("cr", batch)
    # §5.3 truncation that reclaims records → compaction (tmp + rename
    # + dir fsync + forest rebuild).
    journal.attempted_mark["cw"] = 8
    store.truncate_below("cw", 8)
    journal.ack_truncate("cw", 8)
    # The stream stays appendable after compaction.
    batch = tuple(_rec(payloads, "cw", i) for i in range(16, 21))
    for record in batch:
        journal.attempt("cw", record)
    store.append_records("cw", batch, fsync=True)
    journal.ack_records("cw", batch)
    # Mark-only truncation (nothing left below the mark → E_TRUNCATE).
    store.truncate_below("cw", 8)
    journal.ack_truncate("cw", 8)
    # CopyLog staging + the atomic InstallCopies commit point.
    staged = [_rec(payloads, "cr", lsn, epoch=2) for lsn in range(1, 4)]
    journal.staged_lsns = [r.lsn for r in staged]
    for record in staged:
        journal.attempt("cr", record)
        store.stage_copy("cr", record)
    store.install_copies("cr", 2)
    journal.ack_records("cr", staged)
    journal.install_acked = True
    # Tail appends + a final generator bump.
    batch = tuple(_rec(payloads, "cw", i) for i in (21, 22))
    for record in batch:
        journal.attempt("cw", record)
    store.append_records("cw", batch, fsync=True)
    journal.ack_records("cw", batch)
    journal.attempted_gen = 77
    store.generator_write(77)
    journal.durable_gen = 77
    # Group commit: two clients' force batches ride one shared fsync
    # (site ``log.group-fsync``, the server's one-fsync-per-group
    # path).  Neither ack is issued until the covering sync returns,
    # so a crash inside it must lose both batches without fabricating
    # an ack for either parked client.
    batch_w = tuple(_rec(payloads, "cw", i) for i in (23, 24))
    batch_r = tuple(_rec(payloads, "cr", i, epoch=2) for i in (5, 6))
    for record in batch_w:
        journal.attempt("cw", record)
    for record in batch_r:
        journal.attempt("cr", record)
    store.append_records("cw", batch_w, fsync=False)
    store.append_records("cr", batch_r, fsync=False)
    store.sync(site="log.group-fsync")
    journal.ack_records("cw", batch_w)
    journal.ack_records("cr", batch_r)


# -- verification ------------------------------------------------------------


def _verify(data_dir, journal: _Journal, payloads: dict, *,
            strict: bool) -> list[str]:
    """Reopen ``data_dir`` with real I/O and check the invariants."""
    errors: list[str] = []
    try:
        store = FileLogStore(data_dir, "s1")
    except Exception as exc:  # noqa: BLE001 - any reopen failure is a bug
        return [f"reopen failed: {exc!r}"]
    try:
        clients = set(store.mem.known_clients()) \
            | {cid for cid, _ in journal.durable}
        # No fabrication: everything readable was once written.
        for cid in sorted(clients):
            for lsn in store.stored_lsns(cid):
                got = _tup(store.read_record(cid, lsn))
                allowed = journal.attempted.get((cid, lsn), set())
                if got not in allowed:
                    errors.append(
                        f"fabricated record {cid}/{lsn}: {got!r} "
                        f"not among {len(allowed)} written values"
                    )
        # InstallCopies atomicity: the staged set flips epoch together.
        epochs = set()
        complete = True
        for lsn in journal.staged_lsns:
            try:
                epochs.add(store.read_record("cr", lsn).epoch)
            except (LogError, KeyError):
                complete = False
        if complete and len(epochs) > 1:
            errors.append(f"partial install: staged epochs {sorted(epochs)}")
        if strict:
            # Truncation marks: monotone, never beyond what was asked.
            for cid in set(journal.durable_mark) | set(journal.attempted_mark):
                got = store.truncated_lsn(cid)
                lo = journal.durable_mark.get(cid, 0)
                hi = journal.attempted_mark.get(cid, lo)
                if got < lo:
                    errors.append(f"truncate mark regressed for {cid}: "
                                  f"{got} < acked {lo}")
                if got > hi:
                    errors.append(f"truncate mark overshot for {cid}: "
                                  f"{got} > attempted {hi}")
            # Acked durability (records reclaimed by a recovered,
            # legally-attempted mark are excused).
            for (cid, lsn), want in sorted(journal.durable.items()):
                if lsn < store.truncated_lsn(cid):
                    continue
                try:
                    got = _tup(store.read_record(cid, lsn))
                except LogError as exc:
                    errors.append(f"acked record {cid}/{lsn} lost: {exc}")
                    continue
                if got != want and \
                        got not in journal.attempted.get((cid, lsn), set()):
                    errors.append(f"acked record {cid}/{lsn} wrong: "
                                  f"{got!r} != acked {want!r}")
                # got != want but ∈ attempted: a later (unacked) rewrite
                # of the same LSN landed — e.g. a staged epoch-2 copy
                # installed just before the crash.  Legal.
            if journal.install_acked and journal.staged_lsns:
                for lsn in journal.staged_lsns:
                    got = store.read_record("cr", lsn)
                    if got.epoch != 2:
                        errors.append(f"acked install lost: cr/{lsn} "
                                      f"still epoch {got.epoch}")
            if store.generator_value < journal.durable_gen:
                errors.append(f"generator regressed: {store.generator_value}"
                              f" < acked {journal.durable_gen}")
            if store.generator_value > journal.attempted_gen:
                errors.append(f"generator overshot: {store.generator_value}"
                              f" > attempted {journal.attempted_gen}")
            # Forest ↔ log consistency.
            for cid in sorted(clients):
                forest = store.forest(cid)
                if forest is not None:
                    try:
                        forest.check_invariants()
                    except AppendForestError as exc:
                        errors.append(f"forest invariants broken for "
                                      f"{cid}: {exc}")
                for lsn in store.stored_lsns(cid):
                    via = store.read_via_index(cid, lsn)
                    if via is not None \
                            and _tup(via) != _tup(store.read_record(cid, lsn)):
                        errors.append(
                            f"forest disagrees with log at {cid}/{lsn}"
                        )
            # Continuation: the recovered store accepts appends and
            # persists them across another reopen.
            high = store.client_high_lsn("cw") or 0
            cont = StoredRecord(lsn=high + 1, epoch=9, present=True,
                                data=b"continue", kind="data")
            store.append_record("cw", cont, fsync=True)
    except Exception as exc:  # noqa: BLE001 - surface, don't crash the sweep
        errors.append(f"verification crashed: {exc!r}")
    finally:
        store.close()
    if strict and not errors:
        again = FileLogStore(data_dir, "s1")
        try:
            high = again.client_high_lsn("cw") or 0
            if high < 1 or again.read_record("cw", high).data != b"continue":
                errors.append("continuation append did not survive reopen")
        except LogError as exc:
            errors.append(f"continuation reopen failed: {exc}")
        finally:
            again.close()
    return errors


# -- the storage phase (in-process) ------------------------------------------


def _enumerate_points(base_dir: Path, payloads: dict):
    """Run the workload once under a recording injector."""
    injector = FaultInjector()
    store = FileLogStore(base_dir / "enumerate", "s1", io=injector)
    _store_workload(store, _Journal(), payloads)
    store.close()
    injector.close_all()
    return trace_points(injector.trace)


def _run_case(data_dir: Path, plan: Plan, payloads: dict) -> CrashCase:
    case = CrashCase.of(plan)
    injector = FaultInjector(plan, mode="raise")
    journal = _Journal()
    store = None
    try:
        store = FileLogStore(data_dir, "s1", io=injector)
        _store_workload(store, journal, payloads)
    except PowerLoss:
        store = None  # the disk froze; the object is dead
    except (StorageError, OSError):
        pass  # wedged (or failed to open): acks stop here
    finally:
        if store is not None and injector.tripped is None:
            try:
                store.close()
            except (StorageError, OSError):
                pass
        injector.close_all()
    # Silent log corruption voids later acks by design; corruption of
    # the advisory forest index must not (the log is authoritative).
    strict = not any(spec.action == "bit-flip"
                     and not spec.site.startswith("forest.")
                     for spec in plan)
    case.errors = _verify(data_dir, journal, payloads, strict=strict)
    case.ok = not case.errors
    return case


def _actions_for(site: str, *, quick: bool, first: bool) -> list[str]:
    actions = ["power-loss"]
    if site.startswith(_WRITE_SITES):
        if not quick or first:
            actions += ["short-write", "bit-flip"]
    if not quick or first:
        actions.append("eio")
    if site in ("log.fsync", "log.group-fsync") and first:
        actions.append("enospc")
    return actions


def _select_storage(trace, quick: bool) -> list[Plan]:
    plans: list[Plan] = []
    seen: set[str] = set()
    for point in first_and_last(trace) if quick else trace:
        first = point.site not in seen
        seen.add(point.site)
        plans += [(point.arm(action),) for action in
                  _actions_for(point.site, quick=quick, first=first)]
    return plans


def storage_phase(root: Path, payloads: dict) -> Phase:
    return Phase(
        "storage",
        enumerate=lambda: _enumerate_points(root, payloads),
        select=_select_storage,
        run_case=lambda n, plan: _run_case(root / f"case-{n}", plan,
                                           payloads),
        replay="repro crashsweep --point",
    )


# -- the daemon phase --------------------------------------------------------

_DAEMON_CONFIG = ReplicationConfig(total_servers=1, copies=1, delta=4)


async def _daemon_workload(addresses: dict, journal: ClientJournal) -> None:
    """Two client generations against one daemon, journaling wire acks.

    Generation one appends with periodic forces; generation two
    re-initializes the same client id (epoch bump → CopyLog/Install
    over the wire), appends more, and truncates.
    """
    from ..rt.client import AsyncReplicatedLog

    # The daemon dies mid-call by design; in-flight futures that never
    # get retrieved are expected noise, not a harness bug.
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: None)

    async def generation(n_writes: int, start_index: int) -> None:
        log = AsyncReplicatedLog("cd", addresses, _DAEMON_CONFIG,
                                 timeout=3.0)
        await log.initialize()
        journal.epoch = log.current_epoch
        try:
            for i in range(start_index, start_index + n_writes):
                await journal.write(log, f"d{i}".encode())
                if (i + 1) % 3 == 0:
                    await journal.force(log)
            if start_index:
                await journal.truncate(log, 6)
        finally:
            await log.close()

    try:
        await generation(9, 0)
        await generation(9, 9)
    except (LogError, OSError, asyncio.TimeoutError):
        pass  # the daemon died at the armed point; acks stop here


def _daemon_enumerate(root: Path):
    trace_path = root / "daemon-trace.txt"
    cluster = LoopbackCluster(
        str(root / "enum"), num_servers=1,
        server_args=["--fault-trace", str(trace_path)],
    )
    with cluster:
        asyncio.run(_daemon_workload(cluster.addresses(), ClientJournal()))
    return read_trace(trace_path)


#: the sites whose first hit the daemon phase crashes at.
_DAEMON_SITES = ("dir.create-sync", "log.write.record", "log.fsync",
                 "log.group-fsync", "log.write.generator",
                 "log.write.staged", "log.write.install",
                 "log.write.truncate")

#: Multi-fault daemon plans: a torn ``compact.write`` (the lying disk
#: keeps running) combined with power loss at a later point *before*
#: the rename barrier commits the torn stream — the old log must stay
#: authoritative and every wire-acked record must survive the restart.
_DAEMON_COMBINED = (
    parse_plan("compact.write:2:torn,compact.rename:0:power-loss"),
    parse_plan("compact.write:2:torn,compact.fsync:0:power-loss"),
)


#: how long a daemon whose armed point fired may take to be reapable
#: after the workload returned (it is exiting; observed well under
#: 100 ms).  What a case whose point was *not* reached costs.
_EXIT_GRACE_S = 3.0


def _daemon_case(root: Path, index, plan: Plan) -> CrashCase:
    case = CrashCase.of(plan)
    cluster = LoopbackCluster(str(root / f"case-{index}"), num_servers=1)
    try:
        journal = ClientJournal()
        started = True
        try:
            cluster.start_server(
                "s1", extra_args=["--fault-plan", plan_text(plan)])
        except RuntimeError:
            entry = cluster.servers["s1"]
            if entry.process is None \
                    or entry.process.returncode != FAULT_EXIT_CODE:
                raise
            # The armed point fired during startup recovery (e.g.
            # dir.create-sync:0), before the banner.  Nothing was
            # acked; the plain restart below must still come up clean.
            started = False
        if started:
            asyncio.run(_daemon_workload(cluster.addresses(), journal))
            try:
                # An injected exit closes the client's sockets a moment
                # before the process can be reaped, so a workload whose
                # last call hit the point returns while the daemon
                # still polls alive: give the exit time to show.
                code = cluster.wait("s1", timeout=_EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                # Still serving: the workload finished without reaching
                # the armed point (can happen for late indices) —
                # nothing to verify.
                case.hit = False
                return case
            if code != FAULT_EXIT_CODE:
                case.errors.append(f"daemon exited {code}, expected "
                                   f"{FAULT_EXIT_CODE} (injected crash)")
        cluster.restart("s1")  # no plan: clean recovery
        case.errors.extend(asyncio.run(verify_restart(
            cluster.addresses(), "cd", _DAEMON_CONFIG, journal)))
    finally:
        cluster.stop()
        case.ok = not case.errors
    return case


def _select_daemon(trace, quick: bool) -> list[Plan]:
    """First hit of each interesting site, then the combined plans —
    both bounded for the CI smoke."""
    reached = by_site(trace)
    points = [(reached[site][0].arm(),)
              for site in _DAEMON_SITES if site in reached]
    if quick:
        return points[:3] + list(_DAEMON_COMBINED[:1])
    return points + list(_DAEMON_COMBINED)


def daemon_phase(root: Path) -> Phase:
    return Phase(
        "daemon",
        enumerate=lambda: _daemon_enumerate(root),
        select=_select_daemon,
        run_case=lambda n, plan: _daemon_case(root, n, plan),
    )


# -- the client phase --------------------------------------------------------

#: clientworker arguments every phase run shares (3 servers, N=2,
#: δ=4, four 5-record transactions, §5.3 truncation every second one).
_CLIENT_WORKER_ARGS = ("--m", "3", "--n", "2", "--delta", "4",
                       "--txns", "4", "--records-per-txn", "5",
                       "--truncate-every", "2")


#: combined client+server fault cases: a client kill plus a storage
#: fault armed on one write-set daemon.  The storage fault kills the
#: daemon mid-workload, which routes the client through its §5.4
#: write-set switch — and the client is then killed inside it.
_CLIENT_COMBINED = tuple(parse_plan(text) for text in (
    "client.switch.begin:0:exit,s1@log.group-fsync:2:power-loss",
    "client.switch.feed:0:exit,s1@log.group-fsync:2:power-loss",
    "client.switch.done:0:sigkill,s1@log.group-fsync:2:power-loss",
    "client.force.ack:0:exit,s1@log.group-fsync:1:power-loss",
    "client.flush.sent:2:sigkill,s1@log.write.record:10:power-loss",
))

#: the bounded CI smoke subset: one early restart-step point, one
#: streamed-batch point, one partial-ack point, one mid-recovery
#: point, and one partial-fence-install point (killed between the
#: first fence landing and the handoff's recovery).
_CLIENT_QUICK_POINTS = parse_plan(
    "client.epoch.written:0,client.flush.sent:0,client.force.ack:0,"
    "client.recovery.copylog:0,client.handoff.fence.ack:0")


def _worker_env(plan: str | None = None,
                trace: str | None = None) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(clientfault.PLAN_ENV, None)
    env.pop(clientfault.TRACE_ENV, None)
    if plan is not None:
        env[clientfault.PLAN_ENV] = plan
    if trace is not None:
        env[clientfault.TRACE_ENV] = trace
    return env


def _run_worker(addresses: dict, journal: Path, *, mode: str = "run",
                plan: str | None = None, trace: str | None = None,
                timeout: float = 120.0) -> int:
    """Run one clientworker OS process to completion (or injected death)."""
    servers = ",".join(f"{sid}={host}:{port}"
                       for sid, (host, port) in sorted(addresses.items()))
    cmd = [sys.executable, "-m", "repro.harness.clientworker",
           "--servers", servers, "--journal", str(journal),
           "--mode", mode, *_CLIENT_WORKER_ARGS]
    proc = subprocess.run(cmd, env=_worker_env(plan, trace),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=timeout)
    return proc.returncode


@dataclass
class _WorkerJournal:
    """Parsed view of one clientworker journal file."""

    epoch: int = 0
    attempts: dict[int, bytes] = field(default_factory=dict)  # seq → data
    lsn_of: dict[int, int] = field(default_factory=dict)      # seq → lsn
    acked_high: int = 0
    trunc_mark: int = 0    # highest *acknowledged* truncation
    trunc_req: int = 0     # highest *requested* truncation (intent)
    rec_epoch: int = 0
    rec_high: int = 0
    #: lsn → ("1", data) present / ("0", None) guard / ("-", None) gone
    finals: dict[int, tuple[str, bytes | None]] = field(default_factory=dict)
    posts: dict[int, bytes] = field(default_factory=dict)
    postack: int = 0
    done: bool = False


def _parse_worker_journal(path: Path) -> _WorkerJournal:
    j = _WorkerJournal()
    if not path.exists():
        return j
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "EPOCH":
            j.epoch = int(parts[1])
        elif tag == "ATTEMPT":
            j.attempts[int(parts[1])] = bytes.fromhex(parts[2])
        elif tag == "LSN":
            j.lsn_of[int(parts[1])] = int(parts[2])
        elif tag == "ACK":
            j.acked_high = max(j.acked_high, int(parts[1]))
        elif tag == "TRUNC":
            j.trunc_mark = max(j.trunc_mark, int(parts[1]))
        elif tag == "TRUNCREQ":
            j.trunc_req = max(j.trunc_req, int(parts[1]))
        elif tag == "RECOVERED":
            j.rec_epoch, j.rec_high = int(parts[1]), int(parts[2])
        elif tag == "FINAL":
            lsn, state = int(parts[1]), parts[2]
            j.finals[lsn] = (
                state, bytes.fromhex(parts[3]) if state == "1" else None
            )
        elif tag == "POST":
            j.posts[int(parts[1])] = bytes.fromhex(parts[2])
        elif tag == "POSTACK":
            j.postack = int(parts[1])
        elif tag == "DONE":
            j.done = True
    return j


def _client_verify(run: _WorkerJournal, rec1: _WorkerJournal,
                   rec2: _WorkerJournal) -> list[str]:
    """The client-phase invariants, checked against three journals.

    ``run`` is the killed client; ``rec1`` and ``rec2`` are the two
    successive §5.4 restarts from fresh OS processes.  An ack journaled
    by ``run`` is a durability promise; an attempt without an ack is
    not — it may appear (the kill landed after the send) or not (before
    it), but only with the exact attempted payload.
    """
    errors: list[str] = []
    if not rec1.done:
        errors.append("first recovery worker did not finish")
    if not rec2.done:
        errors.append("second recovery worker did not finish")
    data_of_lsn = {lsn: run.attempts[seq]
                   for seq, lsn in run.lsn_of.items()}
    attempted = set(run.attempts.values())
    # Epoch strictly monotone across every client generation.
    if run.epoch and rec1.rec_epoch <= run.epoch:
        errors.append(f"epoch not monotone: restart drew "
                      f"{rec1.rec_epoch} after the killed client ran "
                      f"at {run.epoch}")
    if rec1.rec_epoch and rec2.rec_epoch <= rec1.rec_epoch:
        errors.append(f"epoch not monotone across restarts: "
                      f"{rec2.rec_epoch} <= {rec1.rec_epoch}")
    # Acked-durable exact: every journaled-acked record reads back
    # with its exact payload (unless legally truncated).  A truncation
    # *requested* but killed before its ack may or may not have been
    # applied — like an unacked write, either outcome is legal, so the
    # durability floor is the highest requested mark, and records in
    # [acked mark, requested mark) that *do* survive still go through
    # the no-fabrication payload check below.
    trunc_floor = max(run.trunc_mark, run.trunc_req)
    for seq, lsn in sorted(run.lsn_of.items()):
        if lsn > run.acked_high or lsn < trunc_floor:
            continue
        state, data = rec1.finals.get(lsn, ("missing", None))
        if state != "1":
            errors.append(f"acked lsn {lsn} lost after client kill "
                          f"(state {state})")
        elif data != run.attempts[seq]:
            errors.append(f"acked lsn {lsn} has the wrong payload "
                          f"after restart")
    # No fabrication: every present record carries a payload some
    # client generation actually attempted, at the LSN it was assigned.
    for label, rec, extra in (("first", rec1, {}),
                              ("second", rec2, rec1.posts)):
        allowed = attempted | set(extra.values())
        for lsn, (state, data) in sorted(rec.finals.items()):
            if state != "1":
                continue
            want = extra.get(lsn, data_of_lsn.get(lsn))
            if want is not None:
                if data != want:
                    errors.append(f"{label} restart: lsn {lsn} does not "
                                  f"match the write assigned to it")
            elif data not in allowed:
                errors.append(f"{label} restart fabricated lsn {lsn}")
    # Window-replay idempotence: restarting again (which re-copies the
    # last δ records and re-stages guards) reproduces the exact state.
    for lsn in range(1, rec1.rec_high + 1):
        if rec1.finals.get(lsn) != rec2.finals.get(lsn):
            errors.append(
                f"recovery not idempotent at lsn {lsn}: "
                f"{rec1.finals.get(lsn)!r} then {rec2.finals.get(lsn)!r}"
            )
    # Post-recovery liveness: the first restart's acked transaction is
    # durable for the second.
    if rec1.done and not rec1.posts:
        errors.append("first recovery journaled no post-recovery writes")
    for lsn, data in sorted(rec1.posts.items()):
        if lsn > rec1.postack:
            continue
        state, got = rec2.finals.get(lsn, ("missing", None))
        if state != "1" or got != data:
            errors.append(f"post-recovery acked lsn {lsn} not durable")
    return errors



def _client_enumerate(root: Path):
    """One fault-free worker run under a recording injector."""
    trace_path = root / "client-trace.txt"
    cluster = LoopbackCluster(str(root / "enum"), num_servers=3)
    with cluster:
        rc = _run_worker(cluster.addresses(), root / "enum.journal",
                         trace=str(trace_path))
    if rc != 0:
        raise RuntimeError(f"client enumeration worker exited {rc}")
    return read_trace(trace_path)


def _select_client(trace, quick: bool) -> list[Plan]:
    if quick:
        return [(point.arm(),) for point in _CLIENT_QUICK_POINTS
                if point in trace] + list(_CLIENT_COMBINED[:1])
    # Full mode: first and last index of every site — the window-open
    # and window-deep shape of each protocol seam.
    plans: list[Plan] = []
    seen: set[str] = set()
    for point in first_and_last(trace):
        plans.append((point.arm(),))
        # The hardest kill on the seams that route replies: a SIGKILL
        # mid-stream / mid-partial-ack, at each such site's first point.
        if point.site not in seen and point.site in (
                "client.flush.sent", "client.force.ack"):
            plans.append((point.arm("sigkill"),))
        seen.add(point.site)
    return plans + list(_CLIENT_COMBINED)


def _client_case(root: Path, index, plan: Plan) -> CrashCase:
    """Kill a real client worker at the plan's first spec; restart
    and verify.

    Any further specs are storage faults armed on their target
    daemons — the combined-fault shape where the cluster is crashing
    while the client is being killed and recovered.
    """
    kill, *server_faults = plan
    case = CrashCase(kill.point + "".join(
        f"+{fault.target}:{fault.point}:{fault.action}"
        for fault in server_faults), kill.action)
    case_root = root / f"case-{index}"
    case_root.mkdir(parents=True, exist_ok=True)
    cluster = LoopbackCluster(str(case_root / "cluster"), num_servers=3)
    try:
        for sid, faults in by_target(server_faults, "s1").items():
            cluster.start_server(
                sid, extra_args=["--fault-plan", plan_text(faults)])
        cluster.start()
        run_journal = case_root / "run.journal"
        rc = _run_worker(cluster.addresses(), run_journal, plan=kill.spec)
        run = _parse_worker_journal(run_journal)
        if rc == 0 and run.done:
            # The workload finished without reaching the armed point.
            case.hit = False
            return case
        expected = -signal.SIGKILL if kill.action == "sigkill" \
            else FAULT_EXIT_CODE
        if rc != expected:
            case.errors.append(f"run worker exited {rc}, expected "
                               f"{expected} (injected kill)")
        recoveries: list[_WorkerJournal] = []
        for n in (1, 2):
            journal = case_root / f"recover{n}.journal"
            rc = _run_worker(cluster.addresses(), journal, mode="recover")
            if rc != 0:
                case.errors.append(f"recovery worker {n} exited {rc}")
            recoveries.append(_parse_worker_journal(journal))
        case.errors.extend(
            _client_verify(run, recoveries[0], recoveries[1]))
    finally:
        cluster.stop()
        case.ok = not case.errors
    return case


def client_phase(root: Path) -> Phase:
    return Phase(
        "client",
        enumerate=lambda: _client_enumerate(root),
        select=_select_client,
        run_case=lambda n, plan: _client_case(root, n, plan),
        replay="repro crashsweep --point",
    )


# -- entry point -------------------------------------------------------------


def run_crashsweep(config: SweepConfig, progress=None) -> SweepReport:
    """Run the sweep; ``progress(str)`` receives human-readable lines."""
    say = progress if progress is not None else (lambda line: None)
    root = Path(config.root_dir)
    root.mkdir(parents=True, exist_ok=True)
    report = SweepReport(seed=config.seed, quick=config.quick)
    say(f"crashsweep seed={config.seed} quick={config.quick}")
    start = time.monotonic()

    # A replay runs one plan through the one phase that owns it.
    replay: Plan | None = None
    if config.plan is not None:
        replay, wanted = parse_plan(config.plan), {"fuzz"}
    elif config.point is not None:
        replay = tuple(spec.arm() for spec in parse_plan(config.point))
        if len(replay) != 1:
            raise FaultSpecError(config.point, config.point,
                                 "is not one point (use --plan)")
        wanted = {replay[0].family}
    else:
        wanted = set(config.phases) | ({"fuzz"} if config.fuzz else set())
    if "net" in wanted and replay is None:
        wanted |= {"partition", "handoff"}

    def run(phase: Phase) -> None:
        if phase.name in wanted:
            report.phases[phase.name] = run_phase(
                phase, quick=config.quick, say=say, replay=replay)

    run(storage_phase(root / "storage", _payloads(config.seed)))
    run(daemon_phase(root / "daemon"))
    run(client_phase(root / "client"))
    if wanted & {"net", "fuzz"}:
        # Network faults never corrupt durable state, so one 3-daemon
        # cluster serves every case of the four network-side phases.
        from .netsweep import net_phases
        with LoopbackCluster(str(root / "net" / "cluster"),
                             num_servers=3) as cluster:
            for phase in net_phases(cluster, seed=config.seed,
                                    fuzz=config.fuzz):
                run(phase)

    report.duration_s = time.monotonic() - start
    say(f"{report.cases_run} cases, {len(report.failures)} failures, "
        f"{report.duration_s:.1f}s")
    return report
