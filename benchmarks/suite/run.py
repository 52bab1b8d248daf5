"""The repo benchmark: one workload per invocation, metrics by name.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload fig5_churn_1k --seed 0
    python3 benchmarks/suite/run.py --workload serving_spike --seed 3 --trace 1
    python3 benchmarks/suite/run.py --sets 2          # noise table, all workloads

One run repeats the workload's cell (same seed, same process) until
``--seconds`` have been measured, at least three times; every phase's time
is its fastest repeat's (see ``best``), the end-to-end times are sums
of phases, and every repeat must produce the same ``sim_digest``.  ``--trace 1`` instead runs two plain repeats and one
more under ``cProfile`` and reports the per-layer metrics; end-to-end
metrics only ever come from untraced runs.  The last stdout line is the
JSON result the driver reads; the full record (all metrics + spans)
goes to ``bench-out/suite/``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
MIN_REPEATS = 3
TRACED_PLAIN_REPEATS = 2

#: How repeated timings of the same phase become one number.  The noise
#: on a shared host only ever slows a repeat down (neighbours taking the
#: core or its cache), and drifts over tens of seconds, so the fastest
#: repeat estimates the uncontended time far more steadily than the
#: median does: over 60 back-to-back repeats of ``serving_spike`` the
#: best-of-6 had an inter-quartile spread of 5% where the median-of-6
#: had 10%.  Taking the best per phase and summing (rather than the best
#: whole repeat) harvests quiet windows at ~1 s granularity and cut the
#: spread across ten seeds by up to a third (README.md, "Noise").
best = min


def load_contract() -> dict:
    """``BENCHMARK.json``: the declared workloads, metric names, units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


IMPORT_PROBES = 3
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{suite!r}, {src!r}]; "
    "t = time.perf_counter(); import cells, layers; print(time.perf_counter() - t)"
)


def _import_suite():
    """Import the workloads (and with them ``repro``), timed: the
    import is part of what a user waits for, so it counts as set-up."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(SUITE))
    import cells
    import layers

    return cells, layers, start, time.perf_counter()


def _probe_import() -> float:
    """The same import in a fresh interpreter (this process can import
    only once, and one sample of a half-second import is mostly noise)."""
    code = _IMPORT_PROBE.format(suite=str(SUITE), src=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120,
    )
    return float(done.stdout)


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
) -> dict:
    """Run one workload and return the full record (all metrics by
    name, spans, digests, operation counts)."""
    cells, layers, import_start, import_end = _import_suite()
    workload = cells.WORKLOADS[workload_name]
    spans = cells.Spans()
    spans.repeat = -1
    spans.rows.append(
        {"name": "import.wall_s", "start": import_start, "end": import_end,
         "parent": None, "repeat": -1}
    )
    results: List = []

    def one_repeat(profile: Optional[cProfile.Profile] = None) -> None:
        spans.repeat = len(results)
        gc.collect()  # every repeat starts from the same heap
        if profile is not None:
            profile.enable()
        try:
            with spans.span("repeat"):
                results.append(workload.run(spans, seed, smoke))
        finally:
            if profile is not None:
                profile.disable()

    start = time.perf_counter()
    if traced:
        for _ in range(TRACED_PLAIN_REPEATS):
            one_repeat()
    else:
        while len(results) < MIN_REPEATS or time.perf_counter() - start < seconds:
            one_repeat()
    plain = len(results)
    trace_metrics: Dict[str, float] = {}
    if traced:
        profile = cProfile.Profile()
        one_repeat(profile)
        trace_metrics = layers.bucket(profile)

    # Per repeat: seconds per span name, plus what the harness itself
    # spent between the spans.
    totals = [spans.totals(r) for r in range(len(results))]
    for total in totals:
        inside = sum(v for k, v in total.items() if k != "repeat")
        total["harness.self_s"] = total["repeat"] - inside
    phases = {
        name: best(t.get(name, 0.0) for t in totals[:plain])
        for name in set().union(*totals) - {"repeat"}
    }

    def run_phases(values: Dict[str, float]) -> float:
        return sum(v for k, v in values.items() if k.startswith(cells.RUN_PREFIXES))

    run = [run_phases(t) for t in totals]
    run_wall = run_phases(phases)
    first = results[0]
    digests = [cell.digest for cell in results]
    problems = [p for cell in results for p in cell.problems]
    if len(set(digests)) != 1:
        problems.append(f"sim_digest differs between repeats: {digests}")
    import_s = best(
        [import_end - import_start] + [_probe_import() for _ in range(IMPORT_PROBES)]
    )

    metrics: Dict[str, float] = {
        "setup_s": import_s + sum(phases.get(n, 0.0) for n in cells.SETUP_SPANS),
        "run_wall_s": run_wall,
        "cell_wall_s": sum(phases.values()),
        "events_per_s": first.events / run_wall,
        "ops_per_s": first.ops / run_wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import.wall_s": import_s,
        "repeat.spread_rel": (max(run[:plain]) - min(run[:plain]))
        / statistics.median(run[:plain]),
        "sim.logical_events": first.events,
        "sim.kernel_events": first.kernel_events,
        "events_per_op": first.events / first.ops,
        **phases,
        **first.counts,
    }
    if traced:
        metrics.update(trace_metrics)
        metrics["trace.overhead_ratio"] = run[-1] / run_wall

    for name, value in metrics.items():
        if not math.isfinite(value):
            raise cells.DegenerateRun(f"{workload_name}: metric {name} is {value!r}")
    attempted = sum(cell.ops for cell in results)
    # A failed correctness check fails every operation of the run.
    failed = attempted if problems else sum(cell.ops_failed for cell in results)
    return {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "repeats": plain,
        "sim_digest": digests[0],
        "correct": not problems,
        "problems": problems,
        "ops": first.ops,
        "ops_failed": first.ops_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "spans": spans.rows,
    }


def result_line(record: dict, contract: dict) -> dict:
    """The driver's result object: every end-to-end metric of an
    untraced run, every per-layer metric of a traced one (a layer the
    workload never enters reads 0)."""
    declared = contract["per_layer" if record["traced"] else "end_to_end"]
    fallback = {} if not record["traced"] else {m["name"]: 0.0 for m in declared}
    values = {**fallback, **record["metrics"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def print_report(record: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    print(
        f"# {record['workload']} seed={record['seed']} repeats={record['repeats']} "
        f"traced={int(record['traced'])} sim_digest={record['sim_digest']}"
    )
    print(f"# ops={record['ops']} ops_failed={record['ops_failed']}")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    for name in sorted(record["metrics"]):
        print(f"{name:44s} {record['metrics'][name]:.6g} {units.get(name, '?')}")


def run_sets(args, contract: dict) -> int:
    """Every workload ``--sets`` times, each in a fresh process; prints
    per metric the largest relative difference from the first set
    beside the declared bound, and fails on an exact-count mismatch."""
    sets: List[Dict[str, dict]] = []
    for _ in range(args.sets):
        current: Dict[str, dict] = {}
        for entry in contract["workloads"]:
            name = entry["name"]
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--out-dir", args.out_dir]
            if args.smoke:
                cmd.append("--smoke")
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=900)
            current[name] = json.loads(record_path(args, name).read_text())
        sets.append(current)
    status = 0
    print(f"{'workload':16s} {'metric':14s} {'set 1':>12s} {'max diff':>9s} {'bound':>6s}")
    for entry in contract["workloads"]:
        name = entry["name"]
        base = sets[0][name]
        for metric in contract["end_to_end"]:
            values = [s[name]["metrics"][metric["name"]] for s in sets]
            diff = max(abs(v / values[0] - 1.0) for v in values)
            print(f"{name:16s} {metric['name']:14s} {values[0]:12.5g} "
                  f"{diff:8.1%} {metric['bound']:6.0%}")
        for other in sets[1:]:
            exact = ("sim_digest", "ops", "ops_failed")
            if any(other[name][k] != base[k] for k in exact):
                print(f"{name}: simulated results differ between sets")
                status = 1
    return status


def record_path(args, workload: str) -> Path:
    tag = f"{workload}-seed{args.seed}-trace{int(args.trace)}"
    return Path(args.out_dir) / f"{tag}.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0,
                        help="experiment seed; all generated inputs derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure at least this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a cProfile repeat")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale cells, shape checks off (self-tests)")
    parser.add_argument("--sets", type=int, default=0,
                        help="run every workload this many times, print the noise table")
    parser.add_argument("--out-dir", default="bench-out/suite",
                        help="where the full JSON record goes")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.sets:
        return run_sets(args, contract)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    path = record_path(args, args.workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record, contract)
    print(json.dumps(result_line(record, contract)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
