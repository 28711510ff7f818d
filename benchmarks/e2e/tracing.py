"""Spans recorded from outside: wrap public callables, keep in memory.

A span is ``(name, start_ns, end_ns, parent, trace_id)`` where
``trace_id = (client_id, epoch, high LSN)`` — identifiers every frame
already carries, so spans of one force can be joined across processes
without a wire change.  ``time.perf_counter_ns`` is ``CLOCK_MONOTONIC``
on Linux, so stamps from the generator and the daemons share a
timeline.  Spans are written as JSON lines when a process dumps.
"""

from __future__ import annotations

import contextvars
import glob
import inspect
import json
import os
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        #: index = span id; ``None`` while the span is still open.
        self.spans: list[tuple | None] = []
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "e2e_span", default=-1)
        self._patched: list[tuple[object, str, object]] = []
        self._dumped = 0

    def _open(self) -> tuple[int, int, contextvars.Token]:
        spans = self.spans
        parent = self._current.get()
        # A task created inside a span inherits it through the context
        # copy and may outlive it (a connection's reader task outlives
        # ``initialize``): a span that has already closed is no parent.
        if parent >= 0 and spans[parent] is not None:
            parent = -1
        span_id = len(spans)
        spans.append(None)
        return span_id, parent, self._current.set(span_id)

    def wrap(self, name: str, fn, trace_of=None):
        """``fn`` recording one span per call.

        ``trace_of(args, result)`` returns the span's trace id, or
        ``None`` for a call that names no client, epoch and LSN.
        """
        spans = self.spans
        current = self._current

        if inspect.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                span_id, parent, token = self._open()
                result = None
                start = perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter_ns()
                    current.reset(token)
                    spans[span_id] = (
                        name, start, end, parent,
                        trace_of(args, result) if trace_of else None)
        else:
            def traced(*args, **kwargs):
                span_id, parent, token = self._open()
                result = None
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter_ns()
                    current.reset(token)
                    spans[span_id] = (
                        name, start, end, parent,
                        trace_of(args, result) if trace_of else None)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, trace_of=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, trace_of))

    def unpatch_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Append the closed spans not yet written."""
        with open(path, "a", encoding="utf-8") as out:
            for span_id in range(self._dumped, len(self.spans)):
                span = self.spans[span_id]
                if span is None:
                    continue  # still open (a handler parked on a read)
                name, start, end, parent, trace = span
                out.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent,
                    "trace": list(trace) if trace is not None else None,
                }) + "\n")
        self._dumped = len(self.spans)


# -- trace ids of the wrapped callables -------------------------------------


def _safe(fn):
    """A ``trace_of`` that yields ``None`` when the call failed."""
    def trace_of(args, result):
        try:
            return fn(args, result)
        except (AttributeError, IndexError, TypeError):
            return None
    return trace_of


def install_client_spans(tracer: Tracer) -> None:
    """Wrap what the generator and ``rt.client`` reach."""
    from repro.net import codec
    from repro.rt import client as rt_client

    log = rt_client.AsyncReplicatedLog
    tracer.patch(log, "write", "rt.client.write", _safe(
        lambda a, r: (a[0].client_id, a[0].current_epoch, r)))
    tracer.patch(log, "force", "rt.client.force", _safe(
        lambda a, r: (a[0].client_id, a[0].current_epoch, r)))
    tracer.patch(log, "read", "rt.client.read", _safe(
        lambda a, r: (a[0].client_id, a[0].current_epoch, a[1])))
    tracer.patch(log, "read_forward", "rt.client.read_forward", _safe(
        lambda a, r: (a[0].client_id, a[0].current_epoch, a[1])))
    tracer.patch(log, "initialize", "rt.client.initialize", _safe(
        lambda a, r: (a[0].client_id, a[0].current_epoch,
                      a[0].end_of_log())))
    tracer.patch(rt_client.ServerConnection, "force",
                 "rt.client.conn_force", _safe(
                     lambda a, r: (a[1].client_id, a[1].epoch,
                                   a[1].high_lsn)))
    # rt.client binds these two at import; FrameReader resolves
    # ``decode`` through the codec module's globals.
    tracer.patch(rt_client, "encode_stored_record",
                 "net.codec.encode_stored_record")
    tracer.patch(rt_client, "frame_iov", "net.codec.frame_iov")
    tracer.patch(codec, "decode", "net.codec.decode")


def install_server_spans(tracer: Tracer) -> None:
    """Wrap what ``rt.server`` reaches, before ``run_server`` starts."""
    from repro.net import codec
    from repro.rt import server as rt_server
    from repro.rt.filestore import FileLogStore

    tracer.patch(FileLogStore, "append_records",
                 "rt.filestore.append_records", _safe(
                     lambda a, r: (a[1], a[2][-1].epoch, a[2][-1].lsn)))
    tracer.patch(FileLogStore, "sync", "rt.filestore.sync")
    tracer.patch(FileLogStore, "read_record", "rt.filestore.read_record",
                 _safe(lambda a, r: (a[1], r.epoch, a[2])))
    tracer.patch(FileLogStore, "interval_list",
                 "rt.filestore.interval_list")
    tracer.patch(codec.FrameReader, "read_message",
                 "net.codec.read_message", _safe(
                     lambda a, r: (r.client_id, r.epoch, r.high_lsn)))
    tracer.patch(codec, "decode", "net.codec.decode")
    tracer.patch(rt_server, "frame", "net.codec.frame")
    tracer.patch(rt_server, "frame_new_high_lsn",
                 "net.codec.frame_new_high_lsn", _safe(
                     lambda a, r: (a[0], 0, a[1])))


# -- analysis ---------------------------------------------------------------


def load_spans(span_dir: str) -> list[dict]:
    """Every span under ``span_dir``; ids made unique per file."""
    spans: list[dict] = []
    for index, path in enumerate(sorted(
            glob.glob(os.path.join(span_dir, "spans-*.jsonl")))):
        source = os.path.basename(path)[len("spans-"):-len(".jsonl")]
        with open(path, encoding="utf-8") as lines:
            for line in lines:
                span = json.loads(line)
                span["source"] = source
                span["id"] = (index, span["id"])
                span["parent"] = ((index, span["parent"])
                                  if span["parent"] >= 0 else None)
                spans.append(span)
    return spans


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def annotate_self_times(spans: list[dict]) -> None:
    """Give every span a ``self_ns``: its duration minus the part of it
    its child spans cover (children of concurrent tasks may overlap, so
    the union is taken)."""
    children: dict[tuple, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start_ns"], span["end_ns"]))
    for span in spans:
        span["self_ns"] = (span["end_ns"] - span["start_ns"]
                           - covered_ns(children.get(span["id"], [])))


def by_role_and_name(spans: list[dict]) -> dict[tuple[str, str], list[dict]]:
    """``(role, name)`` → spans; ``role`` is ``client`` for the
    generator's file and ``server`` for a daemon's."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for span in spans:
        role = "client" if span["source"].startswith("client") else "server"
        groups.setdefault((role, span["name"]), []).append(span)
    return groups


def in_window(spans: list[dict], start_ns: int, end_ns: int) -> list[dict]:
    return [s for s in spans if start_ns <= s["start_ns"] < end_ns]
