"""The benchmark suite's ``serving_spike`` cell at full size.

The suite's own tests run this cell only at ``--smoke`` scale with its
paper-shape check off.  Here it runs at full size (200 nodes, 300 s,
``check_serving`` on) at seeds 0 and 1, and at seed 0 a second time in
the same process: no :class:`DegenerateRun`, no shape problem, and one
digest per seed, as ``benchmarks/suite/run.py`` demands of its repeats.
The suite's ``cells`` module is imported read-only.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "suite_cells", REPO_ROOT / "benchmarks" / "suite" / "cells.py"
)
cells = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = cells  # dataclasses resolve their module by name
spec.loader.exec_module(cells)


def _digest(seed: int) -> str:
    """One full-size repeat, as ``run.py`` runs it (a collected heap,
    then ``Workload.run``, whose check applies outside smoke)."""
    gc.collect()
    cell = cells.WORKLOADS["serving_spike"].run(cells.Spans(), seed)
    assert cell.problems == [], f"seed {seed}: {cell.problems}"
    return cell.digest


def test_full_size_serving_spike_is_healthy_and_repeatable():
    first, other, again = (_digest(seed) for seed in (0, 1, 0))
    assert first == again
    assert first != other
