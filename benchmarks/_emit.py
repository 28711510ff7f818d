"""Table and JSON emission for benchmarks.

Benchmarks print the rows/series the paper reports.  Output goes to
the real stdout (bypassing pytest's capture) so that
``pytest benchmarks/bench_paper.py`` leaves the tables in the log.

Benchmarks that contribute to the performance trajectory additionally
call :func:`emit_json`, which writes a machine-readable
``BENCH_<name>.json`` file at the repository root so successive PRs
can be compared without parsing log text.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time
from typing import Any, Mapping, Sequence

from repro.tables import format_table

#: Repository root — two levels up from this file (benchmarks/_emit.py).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def emit(text: str) -> None:
    print(text, file=sys.__stdout__, flush=True)


def emit_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> None:
    emit("")
    emit(format_table(headers, rows, title))


def emit_json(
    name: str,
    payload: Mapping[str, Any],
    root: pathlib.Path | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    ``payload`` must carry ``params`` and ``metrics`` mappings plus a
    ``wall_seconds`` float; ``bench``, the ``machine`` it ran on and a
    ``unix_time`` stamp are filled in here so every trajectory file
    shares one schema::

        {"bench": ..., "params": {...}, "metrics": {...},
         "wall_seconds": ..., "machine": {...}, "unix_time": ...}
    """
    document = {
        "bench": name,
        "params": dict(payload.get("params", {})),
        "metrics": dict(payload.get("metrics", {})),
        "wall_seconds": payload.get("wall_seconds"),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "unix_time": time.time(),
    }
    path = (root if root is not None else REPO_ROOT) / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    emit(f"[bench] wrote {path}")
    return path
