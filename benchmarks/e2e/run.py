"""One command for the force path, the read/restart path and the simulator.

Two ways in:

* ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, the form ``BENCHMARK.json`` names.  The
  last line of standard output is one JSON object: the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
* ``PYTHONPATH=src python -m benchmarks.e2e.run --seed 1987`` — every
  workload in both forms above, each in a process of its own exactly as
  the driver would start it, printed as one report and written as one
  result document.  ``--repeat N`` runs the ``--trace 0`` sets N times
  and prints their spread; ``--check-repeat`` fails when a spread
  exceeds the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import tracing  # noqa: E402
from benchmarks.e2e.harness import (  # noqa: E402
    HERE,
    ROOT,
    machine_stamp,
    median,
    spread,
)
from benchmarks.e2e.ladder import run_ladder  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    WORKLOADS,
    Metric,
    Result,
    Settings,
    run_workload,
)

TRACED_WINDOW_S = 5.0
TRACED_SCALE = 0.25


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- the traced pass ---------------------------------------------------------


def run_traced(name: str, s: Settings) -> tuple[Result, dict[str, Metric]]:
    """Run ``name`` once more with spans on; return it and its
    *trace*-source metrics.  The simulator has no traced pass: no
    wrapped callable is reached by that stack."""
    span_dir = os.path.join(s.data_root, "spans")
    os.makedirs(span_dir, exist_ok=True)
    tracer = tracing.Tracer()
    tracing.install_client_spans(tracer)
    try:
        result = run_workload(name, Settings(
            seed=s.seed, window_s=s.window_s, warmup_s=s.warmup_s,
            scale=s.scale, setup_reps=1, span_dir=span_dir, keep=s.keep,
            data_root=os.path.join(s.data_root, "traced")))
    finally:
        tracer.unpatch_all()
        tracer.dump(os.path.join(span_dir,
                                 f"spans-client-{os.getpid()}.jsonl"))
    spans = tracing.load_spans(span_dir)
    result.notes["span_dir"] = span_dir
    result.notes["spans"] = len(spans)
    return result, trace_metrics(spans, result)


def trace_metrics(spans: list[dict], result: Result) -> dict[str, Metric]:
    """Per-layer numbers from the spans of one traced workload."""
    tracing.annotate_self_times(spans)
    everything = tracing.by_role_and_name(spans)
    load = tracing.by_role_and_name(
        tracing.in_window(spans, *result.notes["load_ns"]))
    ops = result.notes["ops"] or 1
    forces = result.notes["forces"] or 1

    def pick(where, role: str, *names: str) -> list[dict]:
        return [span for name in names for span in where.get((role, name), ())]

    def self_us(where, role: str, *names: str) -> float:
        return sum(s["self_ns"] for s in pick(where, role, *names)) / 1e3

    def median_us(where, role: str, name: str) -> float:
        picked = pick(where, role, name)
        return median((s["end_ns"] - s["start_ns"]) / 1e3
                      for s in picked) if picked else 0.0

    def mean_self_us(where, role: str, name: str) -> float:
        picked = pick(where, role, name)
        return self_us(where, role, name) / len(picked) if picked else 0.0

    conn_forces = len(pick(load, "client", "rt.client.conn_force")) or 1
    client_codec = self_us(load, "client", "net.codec.encode_stored_record",
                           "net.codec.frame_iov", "net.codec.decode")
    server_decode = self_us(load, "server", "net.codec.decode")
    server_reply = self_us(load, "server", "net.codec.frame",
                           "net.codec.frame_new_high_lsn")
    server_append = self_us(load, "server", "rt.filestore.append_records")
    server_sync = self_us(load, "server", "rt.filestore.sync")
    force_p50_us = median_us(load, "client", "rt.client.force")
    # one server's share of one force: the two write-set servers work
    # in parallel, so the blocking path counts one of them
    one_server = (server_decode + server_append + server_sync
                  + server_reply) / conn_forces
    syncs = pick(load, "server", "rt.filestore.sync")
    result.notes["sync_spans_in_load"] = len(syncs)
    return {
        "rt.client.write_us": (
            median_us(load, "client", "rt.client.write"), "us/call"),
        "rt.client.force_wall_us": (force_p50_us, "us/call"),
        "rt.client.conn_force_wall_us": (
            median_us(load, "client", "rt.client.conn_force"), "us/call"),
        "net.codec.client.encode_record_us_per_op": (
            self_us(load, "client", "net.codec.encode_stored_record") / ops,
            "us/op"),
        "net.codec.client.frame_iov_us_per_op": (
            self_us(load, "client", "net.codec.frame_iov") / ops, "us/op"),
        "net.codec.client.decode_us_per_op": (
            self_us(load, "client", "net.codec.decode") / ops, "us/op"),
        "net.codec.server.decode_us_per_force": (
            server_decode / conn_forces, "us/call"),
        "net.codec.server.reply_frame_us_per_force": (
            server_reply / conn_forces, "us/call"),
        "rt.filestore.append_records_self_us": (
            mean_self_us(load, "server", "rt.filestore.append_records"),
            "us/call"),
        "rt.filestore.append_records_calls_per_op": (
            len(pick(load, "server", "rt.filestore.append_records")) / ops,
            "count"),
        "rt.filestore.sync_self_us": (
            mean_self_us(load, "server", "rt.filestore.sync"), "us/call"),
        "rt.filestore.sync_calls_per_op": (len(syncs) / ops, "count"),
        "rt.filestore.read_record_self_us": (
            mean_self_us(everything, "server", "rt.filestore.read_record"),
            "us/call"),
        "rt.filestore.interval_list_self_us": (
            mean_self_us(everything, "server", "rt.filestore.interval_list"),
            "us/call"),
        "budget.residual_us": (
            force_p50_us - client_codec / forces - one_server, "us/call"),
    }


# -- assembling one workload's numbers ----------------------------------------


def measure(name: str, seed: int, window_s: float, data_root: str, *,
            traced: bool, smoke: bool = False, keep: bool = False) -> dict:
    """Run one workload; return its document.

    Untraced always (end-to-end and *cpu* metrics come only from that
    run); with ``traced`` also the traced pass and the ladder.
    """
    scale = 0.25 if smoke else 1.0
    warmup = 0.5 if smoke else 2.0
    result = run_workload(name, Settings(
        seed=seed, window_s=window_s, warmup_s=warmup, scale=scale,
        setup_reps=1 if smoke else 5, extras=traced, keep=keep,
        data_root=os.path.join(data_root, "untraced")))
    doc = {
        "workload": name, "seed": seed, "window_s": window_s,
        "warmup_s": warmup,
        "end_to_end": dict(result.e2e),
        "per_layer": {"cpu": dict(result.layers)},
        "attempted": result.attempted, "failed": result.failed,
        "problems": list(result.problems),
        "notes": {k: v for k, v in result.notes.items() if k != "counters"},
    }
    if not traced:
        return doc
    trace: dict[str, Metric] = {"trace_overhead_ratio": (1.0, "ratio")}
    if name != "sim_target_load":
        traced_result, trace = run_traced(name, Settings(
            seed=seed, window_s=min(window_s, TRACED_WINDOW_S),
            warmup_s=warmup, scale=scale * TRACED_SCALE, keep=keep,
            data_root=data_root))
        # user bytes made durable per second: the one rate both passes
        # measure at any count (restart_read's traced preload is a
        # quarter of the untraced one, so its read rates do not compare)
        rates = [r.layers.get("rt.client.user_mb_per_s", (0.0, ""))[0]
                 for r in (traced_result, result)]
        trace["trace_overhead_ratio"] = (
            rates[0] / rates[1] if rates[1] else 0.0, "ratio")
        doc["attempted"] += traced_result.attempted
        doc["failed"] += traced_result.failed
        doc["problems"] += traced_result.problems
        doc["traced_notes"] = {
            k: v for k, v in traced_result.notes.items() if k != "counters"}
        doc["traced_notes"]["fsyncs_in_load"] = \
            traced_result.notes["counters"]["fsyncs"]
    doc["per_layer"]["trace"] = trace
    doc["per_layer"]["ladder"] = run_ladder(0.1 if smoke else 1.0, data_root)
    return doc


def flat_layers(doc: dict) -> dict[str, Metric]:
    return {name: metric for source in doc["per_layer"].values()
            for name, metric in source.items()}


# -- the BENCHMARK.json form: one workload, one JSON line ----------------------


def driver_line(doc: dict, contract: dict, trace: bool) -> dict:
    """The result object the contract asks for.

    A per-layer metric whose layer does not run on this workload (the
    runtime's on ``sim_target_load``, the simulator's on the others) is
    reported as 0: no work was done there.
    """
    if trace:
        have = flat_layers(doc)
        metrics = {
            spec["name"]: {
                "value": have.get(spec["name"], (0.0, ""))[0],
                "unit": spec["unit"]}
            for spec in contract["per_layer"]}
    else:
        metrics = {
            spec["name"]: {"value": doc["end_to_end"][spec["name"]][0],
                           "unit": spec["unit"]}
            for spec in contract["end_to_end"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": doc["failed"] == 0 and finite,
        "attempted": max(1, doc["attempted"]),
        "failed": doc["failed"],
        "metrics": metrics,
    }


# -- the report ---------------------------------------------------------------


def print_doc(doc: dict, contract: dict) -> None:
    bounds = {spec["name"]: spec for spec in contract["end_to_end"]}
    print(f"\n== {doc['workload']}  (seed {doc['seed']}, window "
          f"{doc['window_s']} s after {doc['warmup_s']} s warm-up; "
          f"op = {doc['notes'].get('op', '?')})")
    for name, (value, unit) in doc["end_to_end"].items():
        spec = bounds.get(name, {})
        print(f"  end-to-end  {name:<44} {value:>14.4f} {unit:<8} "
              f"{spec.get('better', '')} is better, bound "
              f"{spec.get('bound', '-')}")
    print(f"  end-to-end  {'fail_ratio':<44} "
          f"{doc['failed'] / max(1, doc['attempted']):>14.6f} {'ratio':<8} "
          f"{doc['failed']} failed of {doc['attempted']} attempted")
    samples = {k: v for k, v in doc["notes"].items() if k.endswith("samples")}
    print(f"  samples     {samples}")
    for source, metrics in doc["per_layer"].items():
        for name, (value, unit) in metrics.items():
            print(f"  {source:<10}  {name:<44} {value:>14.4f} {unit}")
    for problem in doc["problems"]:
        print(f"  PROBLEM     {problem}")


def print_spread(sets: list[dict[str, dict]], contract: dict,
                 check: bool) -> bool:
    """Per end-to-end metric and workload: median, quartiles, range."""
    ok = True
    print("\n== run-to-run spread over", len(sets), "sets")
    for spec in contract["end_to_end"]:
        for name in WORKLOADS:
            values = [docs[name]["end_to_end"][spec["name"]][0]
                      for docs in sets]
            stats = spread(values)
            verdict = ""
            if check and stats["range_over_median"] > spec["bound"]:
                verdict = f"  EXCEEDS bound {spec['bound']}"
                ok = False
            print(f"  {spec['name']:<16} {name:<16} median "
                  f"{stats['median']:>12.4f} {spec['unit']:<4} "
                  f"q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} "
                  f"(max-min)/median {stats['range_over_median']:.4f}"
                  f"{verdict}")
    return ok


# -- entry --------------------------------------------------------------------


def run_child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    """Start this file the way the driver does; return the child's
    document.  A process per run keeps one workload's leftovers (the
    generator's heap, dirty pages of its log files) out of the next."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    command += ["--smoke"] if args.smoke else []
    command += ["--keep"] if args.keep else []
    command += ["--data-root", args.data_root] if args.data_root else []
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()
    document = None
    for line in out.splitlines():
        if line.startswith('{"document"'):
            document = json.loads(line)["document"]
        elif not line.startswith("{"):
            print(line)
    if document is None:
        raise RuntimeError(f"{workload} --trace {trace} exited with "
                           f"{child.returncode} and no document")
    return document


def run_one(args: argparse.Namespace, contract: dict) -> int:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.data_root:
        os.makedirs(args.data_root, exist_ok=True)
    data_root = tempfile.mkdtemp(prefix="run-", dir=args.data_root or out_dir)
    window_s = 2.0 if args.smoke else args.seconds
    stamp = machine_stamp(data_root) | {
        "seed": args.seed, "window_s": window_s, "smoke": args.smoke,
        "unix_time": time.time()}
    print(json.dumps({"machine": stamp}))
    if "warning" in stamp:
        print("WARNING:", stamp["warning"])
    try:
        # the traced form splits the window between the untraced pass
        # (cpu metrics) and the traced pass
        doc = measure(args.workload, args.seed,
                      window_s / 2 if args.trace else window_s, data_root,
                      traced=bool(args.trace), smoke=args.smoke,
                      keep=args.keep)
        doc["machine"] = stamp
        print_doc(doc, contract)
        line = driver_line(doc, contract, bool(args.trace))
        print(json.dumps({"document": doc}))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    finally:
        if args.keep:
            print(f"kept {data_root}", file=sys.stderr)
        else:
            shutil.rmtree(data_root, ignore_errors=True)


def run_all(args: argparse.Namespace, contract: dict) -> int:
    (HERE / "out").mkdir(exist_ok=True)
    sets: list[dict[str, dict]] = []
    layers: dict[str, dict] = {}
    for repeat in range(args.repeat):
        sets.append({name: run_child(args, name, 0) for name in WORKLOADS})
        if repeat == 0:
            layers = {name: run_child(args, name, 1) for name in WORKLOADS}
    ok = all(doc["failed"] == 0
             for docs in sets + [layers] for doc in docs.values())
    if args.repeat > 1:
        ok &= print_spread(sets, contract, args.check_repeat)
    path = HERE / "out" / f"result-seed{args.seed}.json"
    path.write_text(json.dumps(
        {"end_to_end_sets": sets, "per_layer": layers}, indent=1) + "\n")
    print(f"\nwrote {path}" + ("" if ok else "  (FAILED)"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and end with the JSON line "
                             "BENCHMARK.json describes")
    parser.add_argument("--seed", type=int, default=1987)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="measured window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, quarter counts, ladder at 1/10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--data-root",
                        help="where daemons keep their logs (default: a "
                             "fresh directory under benchmarks/e2e/out)")
    parser.add_argument("--keep", action="store_true",
                        help="leave the data root, span files included")
    args = parser.parse_args(argv)
    # SIGTERM must unwind like KeyboardInterrupt so daemons are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
