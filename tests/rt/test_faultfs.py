"""The injectable I/O backend, and the bugs the crash sweep pinned.

Each regression test below names the ``site:index`` crash point that
first exposed its bug (``repro crashsweep --point SITE:IDX[:ACTION]``
replays it standalone).
"""

from __future__ import annotations

import pytest

from repro.core.errors import StorageError
from repro.core.records import StoredRecord
from repro.net.codec import WireCodecError, decode_stored_record, \
    encode_stored_record
from repro.rt.faultfs import FaultInjector, PassthroughIO, PowerLoss
from repro.rt.faultspec import FaultSpec, FaultSpecError, parse_plan
from repro.rt.filestore import FileLogStore


def rec(lsn, epoch=1, data=None):
    return StoredRecord(lsn=lsn, epoch=epoch, present=True,
                        data=data if data is not None else f"r{lsn}".encode(),
                        kind="data")


# -- storage specs of the one grammar (tests/rt/test_faultspec.py has
# the cross-family rules) ------------------------------------------------


def test_storage_spec_parse_roundtrip():
    (spec,) = parse_plan("log.write.record:7:power-loss")
    assert (spec.site, spec.index, spec.action, spec.family) \
        == ("log.write.record", 7, "power-loss", "storage")
    assert spec.point == "log.write.record:7"
    assert parse_plan(spec.spec) == (spec,)


@pytest.mark.parametrize("spec,bad_token", [
    ("log.fsync", "log.fsync"),             # no index/action
    ("log.fsync:x:power-loss", "x"),        # non-int index
    ("log.fsync:-1:power-loss", "-1"),      # negative index
    ("log.fsync:1:meteor-strike", "meteor-strike"),  # unknown action
    (":1:power-loss", ""),                  # empty site
])
def test_storage_spec_rejects_bad_specs(spec, bad_token):
    with pytest.raises(FaultSpecError) as excinfo:
        parse_plan(spec)
    assert excinfo.value.token == bad_token
    assert excinfo.value.spec == spec
    assert isinstance(excinfo.value, ValueError)  # old except clauses hold


def test_parse_plan_multi():
    plans = parse_plan(
        "compact.write:1:torn, compact.rename:0:power-loss"
    )
    assert [p.spec for p in plans] \
        == ["compact.write:1:torn", "compact.rename:0:power-loss"]
    # Single-spec strings parse to a one-spec tuple.
    assert parse_plan("log.fsync:2:eio") \
        == (FaultSpec("log.fsync", 2, "eio"),)


@pytest.mark.parametrize("spec,bad_token", [
    ("", ""),                                        # empty plan
    ("log.fsync:1:eio,,log.open:0:eio", ""),         # empty middle token
    ("log.fsync:1:eio,log.fsync:1:enospc", "log.fsync:1"),  # dup point
    ("log.fsync:1:eio,log.open:zz:eio", "zz"),       # bad token named
])
def test_parse_plan_rejects_bad_strings(spec, bad_token):
    with pytest.raises(FaultSpecError) as excinfo:
        parse_plan(spec)
    assert excinfo.value.token == bad_token


def test_injector_arms_only_storage_specs():
    """A client or network spec handed to the storage injector is a
    routing mistake, not a fault that silently never fires."""
    for foreign in ("client.force.ack:0:exit", "net.writelog.c2s:0:drop"):
        with pytest.raises(FaultSpecError) as excinfo:
            FaultInjector(parse_plan(foreign))
        assert excinfo.value.token == foreign.split(":")[0]
    with pytest.raises(FaultSpecError):   # a bare point arms nothing
        FaultInjector(parse_plan("log.fsync:0"))


# -- deterministic enumeration --------------------------------------------


def _run_store_script(tmp_path, io):
    store = FileLogStore(tmp_path, "s1", io=io)
    store.append_records("c", (rec(1), rec(2)), fsync=True)
    store.generator_write(5)
    store.close()


def test_trace_is_deterministic(tmp_path):
    traces = []
    for sub in ("a", "b"):
        inj = FaultInjector()
        _run_store_script(tmp_path / sub, inj)
        inj.close_all()
        traces.append(inj.trace)
    assert traces[0] == traces[1]
    assert "log.open:0" in traces[0]
    assert "dir.create-sync:0" in traces[0]


# -- crash shapes ---------------------------------------------------------


def test_power_loss_reverts_to_fsync_barrier(tmp_path):
    inj = FaultInjector(parse_plan("log.fsync:2:power-loss"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_record("c", rec(1), fsync=True)   # log.fsync:0
    store.append_record("c", rec(2), fsync=True)   # log.fsync:1
    with pytest.raises(PowerLoss):
        store.append_record("c", rec(3), fsync=True)  # crash before fsync:2
    inj.close_all()
    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1, 2]  # unsynced r3 gone
    again.close()


def test_short_write_keeps_torn_prefix(tmp_path):
    inj = FaultInjector(parse_plan("log.write.record:1:short-write"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_record("c", rec(1), fsync=True)
    with pytest.raises(PowerLoss):
        store.append_record("c", rec(2), fsync=True)
    inj.close_all()
    again = FileLogStore(tmp_path, "s1")
    # The torn half-entry is recovery's problem: prefix survives,
    # the tail is truncated away.
    assert again.stored_lsns("c") == [1]
    assert again.truncated_bytes > 0
    again.close()


def test_torn_write_keeps_running(tmp_path):
    """``torn`` is the lying disk: a half write with no crash."""
    inj = FaultInjector(parse_plan("log.write.record:1:torn"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_record("c", rec(1), fsync=True)
    store.append_record("c", rec(2), fsync=True)   # torn, but "succeeds"
    store.append_record("c", rec(3), fsync=True)
    assert inj.faults_injected == 1
    assert inj.tripped is None
    store.close()
    inj.close_all()
    # Reopen sees the corruption: replay stops at the torn entry.
    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1]
    again.close()


def test_torn_compact_write_plus_rename_power_loss(tmp_path):
    """Combined plan ``compact.write:2:torn,compact.rename:0:power-loss``.

    The compaction writes a torn record into ``log.dat.tmp`` and the
    machine dies just before the rename installs it.  The old stream
    must stay authoritative — the torn tmp bytes can never surface —
    and a daemon restart replays the retained suffix and can finish
    the truncation cleanly.
    """
    plans = parse_plan(
        "compact.write:2:torn,compact.rename:0:power-loss"
    )
    inj = FaultInjector(plans)
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_records("c", tuple(rec(i) for i in range(1, 9)),
                         fsync=True)
    with pytest.raises(PowerLoss):
        store.truncate_below("c", 5)
    assert inj.faults_injected == 2  # the torn write and the crash
    inj.close_all()
    again = FileLogStore(tmp_path, "s1")
    # Rename never happened: the pre-compaction stream is intact and
    # the torn tmp file was rolled back with its directory entry.
    assert again.stored_lsns("c") == list(range(1, 9))
    assert not (tmp_path / "log.dat.tmp").exists()
    assert again.read_record("c", 5).data == b"r5"
    # The retried truncation completes on the clean store.
    assert again.truncate_below("c", 5) == 4
    assert again.stored_lsns("c") == [5, 6, 7, 8]
    again.close()


def test_errno_action_is_transient_and_wedges_the_store(tmp_path):
    inj = FaultInjector(parse_plan("log.write.record:1:enospc"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_record("c", rec(1), fsync=True)
    with pytest.raises(StorageError):
        store.append_record("c", rec(2), fsync=True)
    # Wedged for writes, alive for reads (daemon degrades to read-only).
    assert store.read_record("c", 1).data == b"r1"
    with pytest.raises(StorageError):
        store.append_record("c", rec(3), fsync=True)
    assert inj.faults_injected == 1
    assert inj.tripped is None  # errno faults do not kill the "machine"
    store.close()
    inj.close_all()


def test_post_crash_io_raises_power_loss(tmp_path):
    inj = FaultInjector(parse_plan("log.fsync:0:power-loss"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    with pytest.raises(PowerLoss):
        store.append_record("c", rec(1), fsync=True)
    with pytest.raises(PowerLoss):  # the disk is dead; no finalizer writes
        inj.fsync_dir(tmp_path, "dir.create-sync")


# -- pinned sweep regressions ---------------------------------------------


def test_created_log_survives_power_loss_after_ack(tmp_path):
    """Crash point ``log.fsync:1:power-loss`` (Bug A).

    Without the ``dir.create-sync`` barrier after creating ``log.dat``,
    the file's directory entry was still uncommitted when the crash
    rolled back pending directory ops — the whole log vanished, taking
    the already-*acknowledged* record 1 with it.
    """
    inj = FaultInjector(parse_plan("log.fsync:1:power-loss"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_record("c", rec(1), fsync=True)   # acked
    with pytest.raises(PowerLoss):
        store.append_record("c", rec(2), fsync=True)
    inj.close_all()
    assert (tmp_path / "log.dat").exists()
    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1]
    assert again.read_record("c", 1).data == b"r1"
    again.close()


def test_stale_forest_detected_after_compaction_crash(tmp_path):
    """Crash point ``forest.unlink:0:power-loss`` (Bug B).

    The crash lands after the compacted stream is durably installed
    (rename + dir fsync) but before the forest index files are
    rebuilt: every forest on disk maps LSNs to byte offsets in the
    *old* stream.  The generation header ties an index file to the
    stream it was built against, so the reopen discards and rebuilds
    instead of silently reading garbage offsets.
    """
    inj = FaultInjector(parse_plan("forest.unlink:0:power-loss"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_records("c", tuple(rec(i) for i in range(1, 9)),
                         fsync=True)
    store.flush()  # persist the (soon stale) forest pages
    with pytest.raises(PowerLoss):
        store.truncate_below("c", 5)  # compacts, crashes at the rebuild
    inj.close_all()
    again = FileLogStore(tmp_path, "s1")
    assert again.log_generation == 1
    for lsn in (5, 6, 7, 8):
        assert again.read_record("c", lsn).data == f"r{lsn}".encode()
        via = again.read_via_index("c", lsn)
        if via is not None:
            assert via.data == f"r{lsn}".encode()
    again.close()


def test_failed_compaction_reopen_keeps_store_usable(tmp_path):
    """Crash point ``compact.reopen:0:eio`` (Bug C).

    The old append handle is already closed when the post-rename
    reopen fails; the store used to keep the closed handle and every
    later read died on ``ValueError: I/O operation on closed file``
    instead of the storage error.  The rescue path re-opens the
    installed stream so the daemon can keep serving reads.
    """
    inj = FaultInjector(parse_plan("compact.reopen:0:eio"))
    store = FileLogStore(tmp_path, "s1", io=inj)
    store.append_records("c", tuple(rec(i) for i in range(1, 9)),
                         fsync=True)
    with pytest.raises(StorageError):
        store.truncate_below("c", 5)
    # Wedged for writes, but reads must keep working.
    assert store.read_record("c", 6).data == b"r6"
    with pytest.raises(StorageError):
        store.append_record("c", rec(9), fsync=True)
    store.close()
    inj.close_all()


def test_record_header_corruption_is_crc_detected(tmp_path):
    """Crash point ``compact.write:3:bit-flip``.

    The record CRC originally covered only the data bytes; a flipped
    bit in the header's epoch field decoded cleanly and replayed as a
    *higher*-epoch rewrite — a fabricated record (or, flipping the
    other way, a fatal "epoch went backwards" that killed the whole
    restart).  The CRC now spans header + data.
    """
    encoded = bytearray(encode_stored_record(rec(3)))
    encoded[5] ^= 0x10  # low half of the u32 epoch field
    with pytest.raises(WireCodecError, match="CRC"):
        decode_stored_record(bytes(encoded), 0)

    # End to end: flip the same header byte inside log.dat; recovery
    # must reject the entry (counted) and keep the valid prefix.
    store = FileLogStore(tmp_path, "s1")
    store.append_record("c", rec(1), fsync=True)
    offset_2 = store.log_size_bytes
    store.append_record("c", rec(2), fsync=True)
    store.close()
    log = tmp_path / "log.dat"
    raw = bytearray(log.read_bytes())
    raw[offset_2 + 19 + 5] ^= 0x10  # entry header is 19 bytes
    log.write_bytes(bytes(raw))
    again = FileLogStore(tmp_path, "s1")
    assert again.stored_lsns("c") == [1]
    assert again.crc_rejections == 1
    again.close()


def test_read_via_index_refuses_stale_entry_after_install(tmp_path):
    """Crash point ``log.write.record:25`` (any restart after install).

    InstallCopies replaces a record in place in the replayed state,
    but the append-only forest still maps the LSN to the original
    append — ``read_via_index`` served the superseded pre-install
    record.  A forest hit whose epoch disagrees with the replayed
    state is stale and must not be returned.
    """
    store = FileLogStore(tmp_path, "s1")
    store.append_records("c", (rec(1), rec(2)), fsync=True)
    store.stage_copy("c", rec(1, epoch=2, data=b"rewritten"))
    store.install_copies("c", 2)
    for s in (store, None):
        if s is None:
            store.close()
            s = FileLogStore(tmp_path, "s1")  # and again after recovery
        assert s.read_record("c", 1).epoch == 2
        via = s.read_via_index("c", 1)
        assert via is None or via.epoch == 2
        via2 = s.read_via_index("c", 2)
        assert via2 is not None and via2.epoch == 1  # untouched entry
    s.close()


def test_passthrough_is_faultless(tmp_path):
    io = PassthroughIO()
    assert io.faults_injected == 0
    fh = io.open(tmp_path / "f", "ab", "log.open")
    io.write(fh, b"abc", "log.write.record")
    io.fsync(fh, "log.fsync")
    fh.close()
    assert (tmp_path / "f").read_bytes() == b"abc"
