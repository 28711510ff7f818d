"""Plain-text table rendering for the CLI, the benchmarks and examples.

Every ``python -m repro`` result command (and its
``benchmarks/bench_paper.py`` case) prints the rows/series the paper
reports in a fixed-width table, so its output can be compared with the
paper's figures directly.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width table with a rule under the header."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

