"""The names ``benchmarks/e2e/`` reaches into ``src`` by.

A change that is measured may not edit the benchmark, and the benchmark
patches and calls the program by name — so a rename in ``src`` breaks
its traced pass, and only in the pipeline.  This resolves every such
name the cheap way: install the span wrappers on a throwaway tracer
(each ``patch`` is a ``getattr``), take them off again, and look up
what ``ladder.py`` calls.
"""

from __future__ import annotations

import inspect

import pytest

from benchmarks.e2e import tracing
from repro.core.intervals import Interval
from repro.core.records import StoredRecord
from repro.net import codec
from repro.rt import client as rt_client
from repro.rt import server as rt_server
from repro.rt.filestore import FileLogStore

SURFACE = {
    rt_client.AsyncReplicatedLog: (
        "write", "force", "read", "read_forward", "initialize", "close"),
    rt_client.ServerConnection: ("force",),
    rt_client: ("encode_stored_record", "frame_iov"),
    codec: ("decode", "frame", "frame_iov", "frame_new_high_lsn",
            "read_message", "FrameReader", "encode_stored_record",
            "FRAME_PREFIX_BYTES"),
    codec.FrameReader: ("read_message", "close"),
    rt_server: ("frame", "frame_new_high_lsn", "run_server",
                "LogServerDaemon"),
    rt_server.LogServerDaemon: ("start", "close"),
    FileLogStore: ("append_records", "sync", "read_record", "interval_list",
                   "stored_lsns", "read_via_index", "log_size_bytes",
                   "record_count", "close"),
}


def _read_surface(store: FileLogStore) -> tuple:
    """What ``ladder.py`` and the traced daemon read from a store, by
    the names and argument shapes they use."""
    return (
        [(store.read_record("c", lsn), store.read_via_index("c", lsn))
         for lsn in store.stored_lsns("c")],
        list(store.stored_lsns("c")),
        store.interval_list("c").intervals,
        store.record_count(),
        store.log_size_bytes,
    )


@pytest.mark.parametrize("install", [tracing.install_client_spans,
                                     tracing.install_server_spans])
def test_span_wrappers_install_and_come_off(install):
    tracer = tracing.Tracer()
    before = {(owner, name): inspect.getattr_static(owner, name)
              for owner, names in SURFACE.items() for name in names}
    try:
        install(tracer)
        assert tracer._patched
    finally:
        tracer.unpatch_all()
    for (owner, name), original in before.items():
        assert inspect.getattr_static(owner, name) is original, (owner, name)


def test_reopened_store_reads_the_same_traced_and_untraced(tmp_path):
    records = tuple(StoredRecord(lsn, 1, data=bytes([lsn]) * 256)
                    for lsn in range(1, 9))
    store = FileLogStore(tmp_path / "s1", "s1")
    store.append_records("c", records, fsync=False)
    store.sync()
    store.close()
    tracer = tracing.Tracer()
    tracing.install_server_spans(tracer)
    try:
        store = FileLogStore(tmp_path / "s1", "s1")
        traced = _read_surface(store)
        assert sum(span[0] == "rt.filestore.read_record"
                   for span in tracer.spans) == len(records)
    finally:
        tracer.unpatch_all()
    untraced = _read_surface(store)
    store.close()
    assert traced == untraced
    assert traced[0] == [(record, record) for record in records]
    assert traced[1:4] == (list(range(1, 9)), (Interval(1, 1, 8),), 8)
    assert traced[4] == 8 * (19 + 16 + 256)


def test_every_name_the_ladder_calls_resolves():
    for owner, names in SURFACE.items():
        for name in names:
            assert getattr(owner, name, None) is not None, (owner, name)
    # the traced pass wraps ``conn.force(msg, bufs)`` positionally
    assert list(inspect.signature(
        rt_client.ServerConnection.force).parameters)[:3] == \
        ["self", "msg", "bufs"]
    # traced_serve.py calls run_server(data_dir, server_id, port=...)
    assert list(inspect.signature(rt_server.run_server).parameters)[:2] == \
        ["data_dir", "server_id"]
    assert "port" in inspect.signature(rt_server.run_server).parameters
