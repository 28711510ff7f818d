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
   truncation) and nothing not written is ever surfaced — the oracle's
   ``acked-durable`` and ``no-fabrication`` rules over ``(client,
   lsn)`` — and the store-only rules: the truncation mark is monotone
   and bounded by what was attempted, InstallCopies is all-or-nothing,
   the generator value never regresses, and the reopened store accepts
   and persists further appends.

Bit flips are *silent corruption* — fsync succeeded but the disk lied —
so durability of later acks is unprovable by design; those cases check
the weaker contract that recovery never surfaces corrupt data (the
CRC rejects the entry and ends the valid prefix).

The **daemon phase** repeats a subset against a real ``repro serve``
process: the sweeps' one client workload
(:func:`~repro.harness.sweep.run_workload`) runs against it at
``M=1, N=1``, so its own recovery is the only copy under test; the
armed daemon dies with exit status 86 mid-workload
(``--fault-plan``), is restarted without the plan, and a fresh client
restarts the stream and observes it for
:func:`~repro.harness.oracle.check`.  Its combined cases arm
multi-fault plans — e.g. a torn ``compact.write`` whose corruption
must stay invisible because power is lost before the covering
``compact.rename`` installs it.

The **client phase** turns the same idea on the *protocol*: the same
workload runs at ``M=3, N=2`` in a separate worker process
(:mod:`repro.harness.clientworker`) against three real ``repro serve``
daemons and is killed — exit 86 or SIGKILL — at every recorded
protocol crash point of :mod:`repro.rt.clientfault`: after a WriteLog
batch is streamed, around ForceLog acknowledgments (including after a
*partial* ack), mid write-set switch, and between each step of the
§5.4 restart.  Two fresh clients then each run the full §5.4 restart
and observe the log, and :func:`~repro.harness.oracle.check` reads
the killed worker's journal and both observations as one history:
epoch monotone, acked durable, nothing fabricated, scan complete,
live, and the second restart reproducing the first's state
(window-replay idempotence).  Combined client cases arm a server
storage fault and a client kill in the same run, so recovery itself
executes against a crashing cluster.

Both run each case through the one runner,
:func:`~repro.harness.sweep.run_case`, on a fresh cluster, and select
from the one recording run, :func:`~repro.harness.sweep.record`.  The
network, partition-switch, handoff and fuzz phases live in
:mod:`repro.harness.netsweep`.  Every phase is a
:class:`~repro.harness.sweep.Phase` run by the one loop in
:mod:`repro.harness.sweep`; every armed fault is a
:class:`~repro.rt.faultspec.FaultSpec` of the one grammar.

Everything is deterministic given ``seed`` (which varies the record
payloads); ``repro crashsweep --seed S --point SITE:IDX[:ACTION]``
replays one failing case.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import LogError, StorageError
from ..core.records import StoredRecord
from ..rt.cluster import LoopbackCluster
from ..rt.faultfs import FaultInjector, PowerLoss
from ..rt.faultspec import FaultSpecError, parse_plan, trace_points
from ..rt.filestore import FileLogStore
from .oracle import acked_durable, no_fabrication
from .sweep import (
    SINGLE_CONFIG,
    SWEEP_CONFIG,
    CrashCase,
    Phase,
    PhaseResult,
    Plan,
    by_site,
    first_and_last,
    reached,
    record,
    run_fresh,
    run_phase,
)

#: sites whose payload can be torn or bit-flipped (the others degrade
#: crash-shaped actions to a plain power loss).
_WRITE_SITES = ("log.write.", "compact.write")

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
        storage, daemon, client, net = (self.phase(name) for name in
                                        ("storage", "daemon", "client",
                                         "net"))

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
    # + dir fsync).
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


def _read(store: FileLogStore, cid: str, lsn: int) -> tuple | None:
    try:
        return _tup(store.read_record(cid, lsn))
    except LogError:
        return None


def _check_store(data_dir, journal: _Journal, *, strict: bool) -> list[str]:
    """Reopen ``data_dir`` with real I/O and check the invariants: the
    oracle's ``acked-durable`` and ``no-fabrication`` over ``(client,
    lsn)``, and the store-only rules."""
    errors: list[str] = []
    try:
        store = FileLogStore(data_dir, "s1")
    except Exception as exc:  # noqa: BLE001 - any reopen failure is a bug
        return [f"reopen failed: {exc!r}"]
    try:
        clients = set(store.mem.known_clients()) \
            | {cid for cid, _ in journal.durable}
        # Everything readable was once written there.
        errors += no_fabrication(
            {(cid, lsn): _tup(store.read_record(cid, lsn))
             for cid in sorted(clients) for lsn in store.stored_lsns(cid)},
            lambda key: journal.attempted.get(key, ()))
        # InstallCopies atomicity: the staged set flips epoch together.
        epochs = set()
        complete = True
        for lsn in journal.staged_lsns:
            try:
                epochs.add(store.read_record("cr", lsn).epoch)
            except (LogError, KeyError):
                complete = False
        if complete and len(epochs) > 1:
            errors.append(f"install-atomic: staged epochs {sorted(epochs)}")
        if strict:
            # Truncation marks: monotone, never beyond what was asked.
            for cid in set(journal.durable_mark) | set(journal.attempted_mark):
                got = store.truncated_lsn(cid)
                lo = journal.durable_mark.get(cid, 0)
                hi = journal.attempted_mark.get(cid, lo)
                if got < lo:
                    errors.append(f"truncate-bounds: mark regressed for "
                                  f"{cid}: {got} < acked {lo}")
                if got > hi:
                    errors.append(f"truncate-bounds: mark overshot for "
                                  f"{cid}: {got} > attempted {hi}")
            # Records reclaimed by a recovered, legally attempted mark
            # are excused; one that a later unacked rewrite of the same
            # LSN replaced (a staged epoch-2 copy installed just before
            # the crash) is legal.
            acked = {(cid, lsn): want
                     for (cid, lsn), want in journal.durable.items()
                     if lsn >= store.truncated_lsn(cid)}
            errors += acked_durable(
                acked, {key: _read(store, *key) for key in acked},
                lambda key: journal.attempted.get(key, ()))
            if journal.install_acked and journal.staged_lsns:
                for lsn in journal.staged_lsns:
                    got = store.read_record("cr", lsn)
                    if got.epoch != 2:
                        errors.append(f"install-atomic: acked install lost:"
                                      f" cr/{lsn} still epoch {got.epoch}")
            if store.generator_value < journal.durable_gen:
                errors.append(f"generator-bounds: regressed: "
                              f"{store.generator_value} < acked "
                              f"{journal.durable_gen}")
            if store.generator_value > journal.attempted_gen:
                errors.append(f"generator-bounds: overshot: "
                              f"{store.generator_value} > attempted "
                              f"{journal.attempted_gen}")
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
        again = None
        try:
            again = FileLogStore(data_dir, "s1")
            high = again.client_high_lsn("cw") or 0
            if high < 1 or again.read_record("cw", high).data != b"continue":
                errors.append("continuation: the append did not survive "
                              "reopen")
        except Exception as exc:  # noqa: BLE001 - fail the case, not the sweep
            errors.append(f"continuation: reopen failed: {exc!r}")
        finally:
            if again is not None:
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
    # Silent log corruption voids later acks by design.
    strict = not any(spec.action == "bit-flip" for spec in plan)
    case.errors = _check_store(data_dir, journal, strict=strict)
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


def _select_daemon(trace, quick: bool) -> list[Plan]:
    """First hit of each interesting site, then the combined plans —
    both bounded for the CI smoke."""
    reached_sites = by_site(trace)
    points = [(reached_sites[site][0].arm(),)
              for site in _DAEMON_SITES if site in reached_sites]
    if quick:
        return points[:3] + list(_DAEMON_COMBINED[:1])
    return points + list(_DAEMON_COMBINED)


def daemon_phase(root: Path) -> Phase:
    """The one workload at M=1, N=1 against one fresh ``repro serve``
    per case, crashed at its storage points."""
    return Phase(
        "daemon",
        enumerate=lambda: reached(record(root / "record", SINGLE_CONFIG)[1],
                                  "storage", "s1"),
        select=_select_daemon,
        run_case=lambda n, plan: run_fresh(root / f"case-{n}",
                                           SINGLE_CONFIG, plan),
    )


# -- the client phase --------------------------------------------------------

#: combined client+server fault cases: a client kill plus a storage
#: fault armed on one write-set daemon.  The storage fault kills the
#: daemon mid-workload, which routes the client through its §5.4
#: write-set switch — and the client is then killed inside it.
_CLIENT_COMBINED = tuple(parse_plan(text) for text in (
    "client.switch.begin:0:exit,s1@log.group-fsync:2:power-loss",
    "client.switch.feed:0:exit,s1@log.group-fsync:2:power-loss",
    "client.switch.done:0:sigkill,s1@log.group-fsync:2:power-loss",
    "client.force.ack:0:exit,s1@log.group-fsync:0:power-loss",
    "client.flush.sent:2:sigkill,s1@log.write.record:4:power-loss",
))

#: the bounded CI smoke subset: one early restart-step point, one
#: streamed-batch point, one partial-ack point, one mid-recovery
#: point, and one partial-fence-install point (killed between the
#: first fence landing and the handoff's recovery).
_CLIENT_QUICK_POINTS = parse_plan(
    "client.epoch.written:0,client.flush.sent:0,client.force.ack:0,"
    "client.recovery.copylog:0,client.handoff.fence.ack:0")


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


def client_phase(root: Path) -> Phase:
    """The one workload at M=3, N=2, a fresh cluster per case, killed
    at each protocol point; then two restarts."""
    return Phase(
        "client",
        enumerate=lambda: reached(record(root / "record", SWEEP_CONFIG)[1],
                                  "client"),
        select=_select_client,
        run_case=lambda n, plan: run_fresh(root / f"case-{n}",
                                           SWEEP_CONFIG, plan, restarts=2),
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
        from .netsweep import net_phases
        with LoopbackCluster(str(root / "net" / "cluster"),
                             num_servers=3) as cluster:
            for phase in net_phases(cluster, root / "net",
                                    seed=config.seed, fuzz=config.fuzz):
                run(phase)

    report.duration_s = time.monotonic() - start
    say(f"{report.cases_run} cases, {len(report.failures)} failures, "
        f"{report.duration_s:.1f}s")
    return report
