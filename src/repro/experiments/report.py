"""Plain-text reporting: aligned tables and coarse series plots.

The benchmark harness prints the paper-shaped rows through these
helpers so that EXPERIMENTS.md entries can be regenerated verbatim.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def format_value(value) -> str:
    """Compact human formatting for table cells."""
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        h.ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(
    title: str,
    xs: Sequence,
    ys: Sequence[float],
    *,
    width: int = 60,
    height: int = 12,
) -> str:
    """Coarse ASCII line chart of a series (log-free, for quick eyes)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if not ys:
        return f"{title}\n(empty series)"
    lo, hi = min(ys), max(ys)
    span = hi - lo or 1.0
    # Downsample to the target width.
    count = len(ys)
    columns = min(width, count)
    grid = [[" "] * columns for _ in range(height)]
    for column in range(columns):
        index = column * (count - 1) // max(columns - 1, 1)
        level = int((ys[index] - lo) / span * (height - 1))
        grid[height - 1 - level][column] = "*"
    lines = [title]
    lines.append(f"max={format_value(hi)}")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append(f"min={format_value(lo)}  x: {xs[0]} .. {xs[-1]}")
    return "\n".join(lines)
