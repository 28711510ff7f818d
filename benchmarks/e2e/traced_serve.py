"""``repro serve`` with spans: wrap the daemon's layer calls, then run it.

Started by :class:`benchmarks.e2e.harness.Cluster` in the traced pass.
Wraps ``FileLogStore.append_records/sync/read_record/interval_list``,
``FrameReader.read_message``, ``decode``, ``frame`` and
``frame_new_high_lsn``, then calls the public ``run_server``.  Spans
stay in memory and are written to ``spans-<sid>-<pid>.jsonl`` at exit
(SIGTERM) or on SIGUSR1, which the harness sends before a SIGKILL.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import signal
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.tracing import Tracer, install_server_spans  # noqa: E402
from repro.rt.server import run_server  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--span-dir", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--server-id", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    tracer = Tracer()
    install_server_spans(tracer)
    pid = os.getpid()
    span_path = os.path.join(args.span_dir,
                             f"spans-{args.server_id}-{pid}.jsonl")

    def dump_now() -> None:
        tracer.dump(span_path)
        pathlib.Path(args.span_dir, f"dumped-{pid}").touch()

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM,
                                asyncio.current_task().cancel)
        loop.add_signal_handler(signal.SIGUSR1, dump_now)
        await run_server(args.data_dir, args.server_id, port=args.port)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    tracer.dump(span_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
