"""Plain-text tables and figure-style reports for benchmarks and examples.

Benchmarks print the same rows/series the paper's figures show; this keeps
rendering in one place so outputs stay uniform and diff-able.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Tuple

from .._rational import format_fraction


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table; Fractions rendered exactly, floats to 4 digits."""

    def fmt(cell: object) -> str:
        if isinstance(cell, Fraction):
            return format_fraction(cell)
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)


def render_edge_flows(
    flows: Mapping[Tuple[str, str], Fraction], title: str = ""
) -> str:
    """Figure-3-style per-edge annotation list."""
    lines = [title] if title else []
    for (u, v), rate in sorted(flows.items()):
        lines.append(f"  {u} -> {v}: {format_fraction(rate)}")
    return "\n".join(lines)


def render_series(
    series: Sequence[Tuple[object, object]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Two-column series with a crude ASCII spark column."""
    vals = [float(y) for _, y in series]
    lo = min(vals) if vals else 0.0
    hi = max(vals) if vals else 1.0
    span = (hi - lo) or 1.0
    lines = [title] if title else []
    lines.append(f"{x_label:>12}  {y_label:>14}")
    for (x, y), fy in zip(series, vals):
        bar = "#" * (1 + int(30 * (fy - lo) / span))
        xs = format_fraction(x) if isinstance(x, Fraction) else str(x)
        ys = format_fraction(y) if isinstance(y, Fraction) else f"{float(y):.4f}"
        lines.append(f"{xs:>12}  {ys:>14}  {bar}")
    return "\n".join(lines)
