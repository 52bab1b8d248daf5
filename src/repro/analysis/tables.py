"""Plain-text table rendering for experiment reports.

The experiment runner prints the same rows the paper's figures plot;
this keeps the formatting in one place.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align ``rows`` under ``headers`` (numbers right, text left)."""
    cells: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        line = []
        for i, cell in enumerate(row):
            if _is_numeric(cell):
                line.append(cell.rjust(widths[i]))
            else:
                line.append(cell.ljust(widths[i]))
        lines.append("  ".join(line))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace("-", "").replace(".", "")
    return stripped.isdigit() and cell not in ("-", "")
