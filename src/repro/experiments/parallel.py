"""Parallel execution of independent experiment cells.

The figure drivers all decompose into *cells* — one (system or
scenario, parameter, run-index) simulation whose result depends only on
its own arguments, seed derivation included.  That makes the sweep
embarrassingly parallel: this module fans cells across a
:mod:`multiprocessing` pool and merges the results in a fixed cell
order, so the output is **bit-identical** to the serial path no matter
how many workers run or how they interleave.

Determinism contract:

* a cell function must be a module-level callable (picklable) whose
  result is a pure function of its arguments;
* results are collected with ``Pool.map`` (order-preserving) and
  aggregated in the same order the serial loops use;
* ``workers=None`` or ``workers <= 1`` short-circuits to an in-process
  loop — no pool, no pickling, exactly the code path the serial
  drivers run.

Metrics collection (``--metrics``) rides the same contract: when the
caller has ``repro.obs`` metrics enabled, every cell — serial or pooled
— runs under its own fresh registry and the per-cell snapshots merge
into the caller's registry in cell order, so the merged snapshot is
byte-identical at any worker count
(``tests/test_metrics_determinism.py``).  Traces are serial-only: a
pool worker's trace events would be lost, which is why the runner
forces ``--workers 1`` under ``--trace``.

``python -m repro.experiments.runner fig8 --workers 4`` is the CLI
entry point.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import OBS, peak_rss_kib, run_cell_collected
from ..worm.model import InfectionCurve
from ..worm.scenarios import SCENARIOS, WormRunResult, WormScenarioConfig
from .ablations import (
    run_fragment_placement,
    run_load_comparison,
    run_multitype_containment,
    run_naive_finger_ablation,
    run_replication_availability,
    run_tracker_ablation,
)
from .dht_ops import (
    DHT_SYSTEMS,
    DhtCellResult,
    DhtExperimentConfig,
    run_dht_cell,
)
from .fig5_lookup_latency import SYSTEMS as FIG5_SYSTEMS
from .fig5_lookup_latency import Fig5Config, average_fig5_rows, run_cell
from .fig8_worm_propagation import Fig8Config, run_fig8_cell
from .records import Fig5Row

#: A cell: (module-level function, argument tuple).
Cell = Tuple[Callable[..., Any], Tuple[Any, ...]]

#: Peak RSS (KiB) per executing process of the most recent
#: :func:`map_cells` call, keyed by process name (``MainProcess`` for
#: the serial path).  Purely observational — results are unaffected.
_last_worker_rss_kib: Dict[str, int] = {}


def _run_cell_rss(cell: Cell) -> Tuple[Any, str, int]:
    """Run one cell in a pool worker and report the worker's peak RSS."""
    fn, args = cell
    result = fn(*args)
    return result, multiprocessing.current_process().name, peak_rss_kib()


def _run_cell_collected(cell: Cell) -> Tuple[Any, str, int, Dict[str, Any]]:
    """Like :func:`_run_cell_rss` but under a fresh metrics registry;
    the cell's snapshot travels back with the result for in-order
    merging by the parent."""
    fn, args = cell
    result, snap = run_cell_collected(fn, args)
    return result, multiprocessing.current_process().name, peak_rss_kib(), snap


def last_worker_rss_kib() -> Dict[str, int]:
    """Per-process peak RSS of the most recent :func:`map_cells` sweep."""
    return dict(_last_worker_rss_kib)


def last_peak_rss_kib() -> Optional[int]:
    """Max peak RSS (KiB) across the most recent sweep's processes."""
    return max(_last_worker_rss_kib.values()) if _last_worker_rss_kib else None


def map_cells(cells: Sequence[Cell], workers: Optional[int] = None) -> List[Any]:
    """Run every cell and return results in cell order.

    Serial (in-process, no pool) when ``workers`` is ``None``/``<= 1``
    or there is at most one cell; otherwise a ``multiprocessing`` pool
    of ``min(workers, len(cells))`` processes.  ``chunksize=1`` keeps
    long cells from pinning a worker behind a prefetched batch.

    Each executing process's peak RSS is recorded as a side effect
    (readable via :func:`last_worker_rss_kib` / :func:`last_peak_rss_kib`
    until the next sweep overwrites it).
    """
    _last_worker_rss_kib.clear()
    registry = OBS.metrics
    if workers is None or workers <= 1 or len(cells) <= 1:
        if registry is not None:
            # Same per-cell snapshot-and-merge sequence as the pool
            # path, so float accumulation order matches exactly.
            results = []
            for fn, args in cells:
                result, snap = run_cell_collected(fn, args)
                registry.merge_snapshot(snap)
                results.append(result)
        else:
            results = [fn(*args) for fn, args in cells]
        _last_worker_rss_kib[multiprocessing.current_process().name] = peak_rss_kib()
        return results
    pool_size = min(workers, len(cells))
    worker_fn = _run_cell_collected if registry is not None else _run_cell_rss
    with multiprocessing.Pool(pool_size) as pool:
        rows = pool.map(worker_fn, cells, chunksize=1)
    for row in rows:
        worker, rss = row[1], row[2]
        prev = _last_worker_rss_kib.get(worker, 0)
        if rss > prev:
            _last_worker_rss_kib[worker] = rss
    if registry is not None:
        for row in rows:
            registry.merge_snapshot(row[3])
    return [row[0] for row in rows]


# -- fig8 ----------------------------------------------------------------------


def run_fig8_cells(
    config: Fig8Config,
    scenarios: Sequence[str] = SCENARIOS,
    workers: Optional[int] = None,
) -> Dict[str, List[WormRunResult]]:
    """All (scenario, run) cells of Fig. 8, grouped by scenario."""
    cells: List[Cell] = [
        (run_fig8_cell, (config, scenario, run_index))
        for scenario in scenarios
        for run_index in range(config.runs)
    ]
    results = map_cells(cells, workers)
    grouped: Dict[str, List[WormRunResult]] = {}
    for i, scenario in enumerate(scenarios):
        grouped[scenario] = results[i * config.runs : (i + 1) * config.runs]
    return grouped


def fig8_curves(
    results_by_scenario: Dict[str, List[WormRunResult]],
) -> Dict[str, List[InfectionCurve]]:
    """Raw curves per scenario, for :func:`...fig8_worm_propagation.curve_series`."""
    return {
        scenario: [r.curve for r in results]
        for scenario, results in results_by_scenario.items()
    }


# -- fig5 ----------------------------------------------------------------------


def run_fig5_parallel(
    config: Fig5Config,
    systems: Sequence[str] = FIG5_SYSTEMS,
    lifetimes: Optional[Sequence[float]] = None,
    workers: Optional[int] = None,
) -> List[Fig5Row]:
    """Drop-in parallel ``run_fig5``: the (system, lifetime, run) grid
    fanned out cell-wise, averaged per (system, lifetime) in serial
    order."""
    lifetimes = (
        list(lifetimes) if lifetimes is not None else list(config.mean_lifetimes_s)
    )
    cells: List[Cell] = [
        (run_cell, (config, system, lifetime, run_index))
        for system in systems
        for lifetime in lifetimes
        for run_index in range(config.runs)
    ]
    flat = map_cells(cells, workers)
    rows: List[Fig5Row] = []
    index = 0
    for _system in systems:
        for _lifetime in lifetimes:
            rows.append(average_fig5_rows(flat[index : index + config.runs]))
            index += config.runs
    return rows


# -- fig6/7 (DHT operations) ---------------------------------------------------


def run_dht_parallel(
    config: DhtExperimentConfig,
    systems: Sequence[str] = tuple(DHT_SYSTEMS),
    workers: Optional[int] = None,
) -> List[DhtCellResult]:
    """Drop-in parallel ``run_dht_experiment``: one cell per system,
    results in system order."""
    cells: List[Cell] = [(run_dht_cell, (config, system)) for system in systems]
    return map_cells(cells, workers)


# -- ablations -----------------------------------------------------------------


def run_ablations_parallel(
    config: WormScenarioConfig,
    until: float,
    type_bits: Sequence[int] = (1, 2, 3),
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """The six ablation studies as independent cells.

    Returns ``{"naive_finger", "availability", "load", "multitype",
    "tracker", "fragments"}`` with the same objects the serial
    :mod:`repro.experiments.ablations` functions produce (``multitype``
    is one result per entry of ``type_bits``).
    """
    cells: List[Cell] = [
        (run_naive_finger_ablation, (config, until)),
        (run_replication_availability, (config,)),
        (run_load_comparison, ()),
        (run_tracker_ablation, ()),
        (run_fragment_placement, ()),
    ]
    cells.extend(
        (run_multitype_containment, (4000, 256, tb)) for tb in type_bits
    )
    results = map_cells(cells, workers)
    return {
        "naive_finger": results[0],
        "availability": results[1],
        "load": results[2],
        "tracker": results[3],
        "fragments": results[4],
        "multitype": results[5:],
    }
