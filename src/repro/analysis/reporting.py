"""Plain-text table/series formatting for experiment outputs.

Every experiment module renders its result through these helpers so the
benchmark harness prints rows shaped like the paper's tables and the
series behind its figures.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Union

Number = Union[int, float]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    precision: int = 2,
) -> str:
    """Fixed-width table with a title line."""

    def fmt(x: object) -> str:
        if isinstance(x, float):
            return f"{x:.{precision}f}"
        return str(x)

    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[Number], ys: Sequence[Number], precision: int = 3
) -> str:
    """One figure series as ``name: (x, y) ...`` pairs."""
    pairs = " ".join(
        f"({x:g}, {y:.{precision}f})" for x, y in zip(xs, ys)
    )
    return f"{name}: {pairs}"


def format_speedup(value: float) -> str:
    """Paper-style relative-speedup cell, e.g. ``1.34x`` or ``OOM``."""
    if value != value or value in (float("inf"), 0.0):  # nan / oom
        return "OOM"
    return f"{value:.2f}x"


def dict_rows(
    data: Mapping[str, Mapping[str, object]], row_key: str = "row"
) -> List[List[object]]:
    """Flatten ``{row: {col: val}}`` into table rows (sorted by row)."""
    cols: List[str] = []
    for row in data.values():
        for c in row:
            if c not in cols:
                cols.append(c)
    return [[r] + [data[r].get(c, "") for c in cols] for r in sorted(data)]
