"""The scale ladder (``BENCH_scaling.json``): how fast, from 1k to 1M nodes.

Each rung is one of the benchmark suite's workloads
(``benchmarks/suite/cells.py``) with ``dataclasses.replace`` overrides
on its config, measured by the suite's own ``run.measure``: best-of-3
phase spans, ``sim_digest``, the degenerate-run guards and, at full
scale, the paper-shape checks.  Every rung runs in its own process, so
its peak RSS is its own.  The one cell of the ladder's own is the
object-engine reference rung, whose rows and event count (hence
digest) must equal ``live-1k``'s; the ladder exits 1 if they do not,
or if any rung fails its checks.

Usage (from the repository root)::

    python benchmarks/perf/ladder.py                       # all six rungs (~10 min)
    python benchmarks/perf/ladder.py --rung live-100k --out /tmp/r.json
    python benchmarks/perf/ladder.py --smoke --out bench-out/BENCH_scaling.json

``--smoke`` runs every rung at its base workload's smoke scale with
only the engine override kept (a plumbing check, not a measurement).
Each record carries the suite's six end-to-end metrics (``wall_clock_s``
is the suite's ``run_wall_s``), ``bytes_per_node`` (peak RSS over the
population) and the cell's exact counts.  A rung's ``setup_s`` is its
build phases only: the ladder has imported the package before the
suite times the import.  The live-1k and live-10k records also carry
``memory_sites``: the top allocation sites by size retained right after
``sim.run``, from one extra repeat under ``tracemalloc`` that runs after
the timed ones (so neither their times nor the peak RSS see its cost).
"""

from __future__ import annotations

import argparse
import json
import linecache
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
SUITE = HERE.parent / "suite"
sys.path[:0] = [str(HERE), str(SUITE)]

import perf_common  # noqa: E402  (sets sys.path for the repro import)
import cells  # noqa: E402
import run  # noqa: E402
from repro.experiments.fig5_lookup_latency import run_cell_instrumented  # noqa: E402

SEED = 0
COUNTS = ("chord.lookups", "chord.lookup_failures", "worm.scans", "worm.infected")
#: Rungs whose record gets a ``memory_sites`` table, and its length.
MEMORY_SITE_RUNGS = ("live-1k", "live-10k")
MEMORY_SITES = 10


def object_fig5_cell(
    spans: cells.Spans, workload: str, config, systems=cells.FIG5_SYSTEMS
) -> cells.Cell:
    """``fig5_cell`` on the object engine, through the driver of record
    (which builds inside its run span, so the rung's ``setup_s`` is the
    import only)."""
    rows, events = [], 0
    for system in systems:
        with spans.span(f"sim.run_wall_s.{system}"):
            row, cell_events = run_cell_instrumented(config, system, cells.MEAN_LIFETIME_S)
        rows.append(row)
        events += cell_events
    cells._check_finite(workload, rows)
    lookups = sum(row.lookups for row in rows)
    failures = sum(round(row.failure_rate * row.lookups) for row in rows)
    return cells.Cell(
        rows=rows, events=events, kernel_events=events, ops=lookups, ops_failed=failures,
        counts={"chord.lookups": lookups, "chord.lookup_failures": failures},
    )


class Rung(NamedTuple):
    workload: str                    # the suite workload it is built from
    overrides: dict                  # dataclasses.replace on that workload's config
    cell: Optional[Callable] = None  # None: the workload's own cell

    def args(self, seed: int, smoke: bool) -> tuple:
        config, *rest = cells.WORKLOADS[self.workload].args(seed, smoke)
        keep = {k: v for k, v in self.overrides.items() if not smoke or k == "engine"}
        return (replace(config, **keep), *rest)

    def as_workload(self, name: str) -> cells.Workload:
        base = cells.WORKLOADS[self.workload]
        return cells.Workload(name, self.args, self.cell or base.cell, base.check)


RUNGS: Dict[str, Rung] = {
    "live-1k": Rung("fig5_churn_1k", {}),
    "live-1k-object": Rung("fig5_churn_1k", {"engine": "object"}, object_fig5_cell),
    "live-10k": Rung("ring_scale_10k", {}),
    "live-100k": Rung("ring_scale_10k", {"num_nodes": 100_000, "num_sections": 1024}),
    "worm-100k": Rung("worm_fig8_100k", {}),
    "worm-1m": Rung("worm_fig8_100k", {"num_nodes": 1_000_000}),
}


def _site(frame) -> str:
    """``path:line`` of a traceback frame, the path relative to the
    deepest ``sys.path`` entry that holds it (no machine paths)."""
    path = Path(frame.filename)
    roots = sorted((Path(p) for p in sys.path if p), key=lambda p: len(p.parts))
    for root in reversed(roots):
        if path.is_relative_to(root):
            path = path.relative_to(root)
            break
    return f"{path.as_posix()}:{frame.lineno}"


def memory_sites(name: str, smoke: bool) -> dict:
    """One untimed repeat of rung ``name`` under ``tracemalloc``: the
    :data:`MEMORY_SITES` allocation sites holding the most memory right
    after ``sim.run`` returns.  A live cell runs one engine per system
    or arm, each inside the suite's ``frozen_gc`` context; that context
    is wrapped to take the table at its exit, and the run that traced
    the most memory is reported (``run`` is its index in the cell)."""
    tables = []
    frozen_gc = cells.frozen_gc

    @contextmanager
    def snapshotting():
        with frozen_gc():
            yield
            traced = tracemalloc.get_traced_memory()[0]
            top = tracemalloc.take_snapshot().statistics("lineno")[:MEMORY_SITES]
            tables.append({
                "run": len(tables),
                "traced_mib": traced / 2**20,
                "sites": [
                    {"site": _site(frame), "mib": stat.size / 2**20, "blocks": stat.count,
                     "code": linecache.getline(frame.filename, frame.lineno).strip()}
                    for stat in top
                    for frame in (stat.traceback[0],)
                ],
            })

    cells.frozen_gc = snapshotting
    tracemalloc.start()
    try:
        RUNGS[name].as_workload(name).run(cells.Spans(), SEED, smoke)
    finally:
        tracemalloc.stop()
        cells.frozen_gc = frozen_gc
    return max(tables, key=lambda table: table["traced_mib"])


def measure_rung(name: str, smoke: bool) -> dict:
    """One rung through ``run.measure``, as a schema-v1 bench record."""
    rung = RUNGS[name]
    cells.WORKLOADS[name] = rung.as_workload(name)
    try:
        measured = run.measure(name, SEED, seconds=0, smoke=smoke)
    finally:
        del cells.WORKLOADS[name]
    config = rung.args(SEED, smoke)[0]
    metrics = measured["metrics"]
    end_to_end = [m["name"] for m in run.load_contract()["end_to_end"]]
    record = perf_common.bench_record(
        name=name,
        wall_clock_s=metrics["run_wall_s"],
        events=metrics["sim.logical_events"],
        seed=SEED,
        parameters={
            "workload": rung.workload, "smoke": smoke, "num_nodes": config.num_nodes,
            "num_sections": config.num_sections, "engine": config.engine,
        },
        metrics={
            **{k: metrics[k] for k in end_to_end},
            "bytes_per_node": metrics["peak_rss_mib"] * 2**20 / config.num_nodes,
            **{k: metrics[k] for k in COUNTS if k in metrics},
        },
    )
    record.update(
        sim_digest=measured["sim_digest"], correct=measured["correct"],
        problems=measured["problems"],
    )
    if name in MEMORY_SITE_RUNGS:
        record["memory_sites"] = memory_sites(name, smoke)
    return record


def run_rungs(names: List[str], smoke: bool) -> List[dict]:
    """Each rung in a fresh interpreter (its peak RSS is its own)."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, __file__, "--rung", name, "--out", str(out)]
            if smoke:
                cmd.append("--smoke")
            subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
            if not out.exists():
                raise SystemExit(f"rung {name} produced no record")
            records.extend(json.loads(out.read_text()))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable; default: all)")
    parser.add_argument("--smoke", action="store_true",
                        help="every rung at its workload's smoke scale, for CI")
    parser.add_argument("--out", default=str(perf_common.REPO_ROOT / "BENCH_scaling.json"),
                        help="output path (default BENCH_scaling.json at repo root)")
    args = parser.parse_args(argv)
    names = args.rung or list(RUNGS)
    if len(names) == 1:
        records = [measure_rung(names[0], args.smoke)]
    else:
        records = run_rungs(names, args.smoke)
    perf_common.write_record(records, args.out)
    status = 0
    for record in records:
        m = record["metrics"]
        print(f"{record['name']:15s} setup {m['setup_s']:7.2f}s  run {m['run_wall_s']:7.2f}s  "
              f"{m['events_per_s']:10,.0f} ev/s  {m['ops_per_s']:8,.0f} ops/s  "
              f"{m['peak_rss_mib']:7.0f} MiB  {m['bytes_per_node']:8,.0f} B/node")
        for problem in record["problems"]:
            print(f"  CHECK FAILED: {problem}")
        status |= not record["correct"]
    digests = {r["name"]: r["sim_digest"] for r in records}
    if {"live-1k", "live-1k-object"} <= digests.keys() and (
        digests["live-1k"] != digests["live-1k-object"]
    ):
        print("ENGINE MISMATCH: live-1k-object and live-1k differ in sim_digest")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
