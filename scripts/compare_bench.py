#!/usr/bin/env python3
"""Validate benchmark records, or diff two and fail on regression.

Modes::

    # Schema check (CI): exit 2 on malformed or degenerate records
    # (non-finite or bool metrics, no events, zero lookups).  A file
    # holds one record or a list of them, one per ladder rung; every
    # element is checked and an error names the failing rung.
    python scripts/compare_bench.py --check BENCH_kernel.json BENCH_scaling.json

    # Gate: exit 1 if `current` regressed >15% vs `baseline`
    python scripts/compare_bench.py BENCH_kernel.baseline.json BENCH_kernel.json

A regression is a drop in ``events_per_s`` or a rise in
``wall_clock_s`` beyond ``--threshold`` (default 0.15).  Records must
share ``name`` and ``parameters`` — timings from different workloads
are not comparable and are rejected.  Differing machine fingerprints
are reported as a warning (the comparison still runs; judge it
accordingly).

Exit codes: 0 ok, 1 regression, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# perf_common owns the schema; import it from the suite directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "perf"))
import perf_common  # noqa: E402


def load_records(path: str) -> list[dict]:
    """The records in ``path`` (one, or a ladder's list), each validated."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot read record: {exc}") from exc
    records = data if isinstance(data, list) else [data]
    if not records:
        raise ValueError(f"{path}: holds no records")
    for index, record in enumerate(records):
        where = path
        if isinstance(data, list):
            name = record.get("name") if isinstance(record, dict) else None
            where = f"{path}: rung {index} ({name})"
        try:
            perf_common.validate_record(record)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return records


def parameter_diff(baseline: dict, current: dict) -> str:
    """One ``  key: old -> new`` line per parameter that differs."""
    missing = "<missing>"
    return "\n".join(
        f"  {key}: {baseline.get(key, missing)!r} -> {current.get(key, missing)!r}"
        for key in sorted(set(baseline) | set(current))
        if baseline.get(key, missing) != current.get(key, missing)
    )


def compare(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Return a list of regression messages (empty = pass)."""
    if baseline["name"] != current["name"]:
        raise ValueError(
            f"records are different benchmarks: "
            f"{baseline['name']!r} vs {current['name']!r}"
        )
    if baseline["parameters"] != current["parameters"]:
        raise ValueError(
            f"records of {baseline['name']!r} ran with different parameters "
            "(baseline -> current):\n"
            + parameter_diff(baseline["parameters"], current["parameters"])
        )
    if baseline["machine"] != current["machine"]:
        print(
            "warning: machine fingerprints differ; timings may not be comparable",
            file=sys.stderr,
        )
    regressions = []
    base_eps, cur_eps = baseline["events_per_s"], current["events_per_s"]
    if base_eps > 0 and cur_eps < base_eps * (1.0 - threshold):
        regressions.append(
            f"events_per_s: {cur_eps:,.0f} vs baseline {base_eps:,.0f} "
            f"({cur_eps / base_eps - 1.0:+.1%}, limit -{threshold:.0%})"
        )
    base_wall, cur_wall = baseline["wall_clock_s"], current["wall_clock_s"]
    if cur_wall > base_wall * (1.0 + threshold):
        regressions.append(
            f"wall_clock_s: {cur_wall:.3f} vs baseline {base_wall:.3f} "
            f"({cur_wall / base_wall - 1.0:+.1%}, limit +{threshold:.0%})"
        )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("records", nargs="+",
                        help="baseline.json current.json, or files for --check")
    parser.add_argument("--check", action="store_true",
                        help="only validate record schemas, no comparison")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative regression (default 0.15)")
    args = parser.parse_args(argv)

    try:
        loaded = [load_records(path) for path in args.records]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check:
        for path, records in zip(args.records, loaded):
            for record in records:
                print(f"ok: {path} ({record['name']}, "
                      f"{record['events_per_s']:,.0f} events/s)")
        return 0

    if len(loaded) != 2 or any(len(records) != 1 for records in loaded):
        print("error: comparison mode needs exactly two single-record files "
              "(baseline, current)", file=sys.stderr)
        return 2
    (baseline,), (current,) = loaded
    try:
        regressions = compare(baseline, current, args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = baseline["name"]
    if regressions:
        for message in regressions:
            print(f"REGRESSION [{name}] {message}")
        return 1
    print(f"ok: {name} within {args.threshold:.0%} of baseline "
          f"({current['events_per_s']:,.0f} vs "
          f"{baseline['events_per_s']:,.0f} events/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
