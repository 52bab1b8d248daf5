"""Shared plumbing for the perf records.

Two scripts in this directory write schema-v1 records:
``kernel_throughput.py`` (one record, ``BENCH_kernel.json``) and
``ladder.py`` (a list of them, one per rung, ``BENCH_scaling.json``).
The schema is what ``scripts/compare_bench.py`` validates and diffs:

* ``name`` — benchmark identity (a rung's name); only same-name
  records compare;
* ``schema_version`` — bump when fields change incompatibly;
* ``wall_clock_s`` / ``events`` / ``events_per_s`` — the measurements
  (kernel events for the microbenchmark; for a rung, the suite's
  logical events over its ``run_wall_s``);
* ``peak_rss_kib`` — ``ru_maxrss`` of the process, KiB on Linux;
* ``seed`` — the experiment seed, so a record pins a reproducible run;
* ``machine`` — fingerprint (platform, python, CPU count) so
  cross-machine diffs can be recognised and discounted;
* ``parameters`` — the workload knobs; records with different
  parameters are not comparable and ``compare_bench.py`` refuses them.

A record is also rejected as degenerate when any measurement or metric
is non-finite or a bool, when it counts no events, or when a
``*lookups`` metric is zero: such a run measured nothing, whatever its
wall clock says.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

REPO_ROOT = Path(__file__).resolve().parents[2]

# Allow running straight from a checkout without installing the package.
if "repro" not in sys.modules:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.profile import peak_rss_kib  # noqa: E402  (after the path fix-up)

SCHEMA_VERSION = 1

#: Field name -> required type(s) for schema validation.
SCHEMA_FIELDS: Dict[str, tuple] = {
    "name": (str,),
    "schema_version": (int,),
    "wall_clock_s": (float, int),
    "events": (int,),
    "events_per_s": (float, int),
    "peak_rss_kib": (int,),
    "seed": (int,),
    "machine": (dict,),
    "parameters": (dict,),
}


def machine_fingerprint() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def bench_record(
    name: str,
    wall_clock_s: float,
    events: int,
    seed: int,
    parameters: Dict[str, Any],
    metrics: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Assemble a schema-conforming benchmark record."""
    record: Dict[str, Any] = {
        "name": name,
        "schema_version": SCHEMA_VERSION,
        "wall_clock_s": wall_clock_s,
        "events": events,
        "events_per_s": events / wall_clock_s if wall_clock_s > 0 else 0.0,
        "peak_rss_kib": peak_rss_kib(),
        "seed": seed,
        "machine": machine_fingerprint(),
        "parameters": parameters,
    }
    if metrics:
        record["metrics"] = metrics
    return record


def validate_record(record: Any) -> None:
    """Raise ``ValueError`` if ``record`` does not match the schema."""
    if not isinstance(record, dict):
        raise ValueError("benchmark record must be a JSON object")
    for field, types in SCHEMA_FIELDS.items():
        if field not in record:
            raise ValueError(f"missing required field {field!r}")
        if not isinstance(record[field], types) or isinstance(record[field], bool):
            raise ValueError(
                f"field {field!r} has type {type(record[field]).__name__}, "
                f"expected {' or '.join(t.__name__ for t in types)}"
            )
    if record["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {record['schema_version']} != {SCHEMA_VERSION}"
        )
    if record["wall_clock_s"] <= 0:
        raise ValueError("wall_clock_s must be positive")
    metrics = record.get("metrics", {})
    numbers = {"wall_clock_s": record["wall_clock_s"],
               "events_per_s": record["events_per_s"], **metrics}
    for field, value in numbers.items():
        # bool is an int subclass: {"lookups": true} is not a count.
        if isinstance(value, bool):
            raise ValueError(f"{field} is a bool ({value}), not a number")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{field} is not finite ({value})")
    # A record that measured no work is degenerate, however fast it ran.
    if record["events"] <= 0:
        raise ValueError("events must be positive (the run did nothing)")
    for field, value in metrics.items():
        is_lookups = field == "lookups" or field.endswith((".lookups", "_lookups"))
        if is_lookups and value <= 0:
            raise ValueError(f"{field} is {value}: the run completed no lookups")


def write_record(
    record: Union[Dict[str, Any], List[Dict[str, Any]]], out: Optional[str] = None
) -> Path:
    """Validate and write one record, or a list of them (one per ladder
    rung); a single record defaults to ``BENCH_<name>.json`` at the
    repository root."""
    for each in record if isinstance(record, list) else [record]:
        validate_record(each)
    path = Path(out) if out else REPO_ROOT / f"BENCH_{record['name']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
