"""The scale ladder (``benchmarks/perf/ladder.py``): its rung table is
well formed, and its object-engine rung reproduces the columnar rung's
``sim_digest`` through the benchmark suite's own measurement."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "ladder", REPO_ROOT / "benchmarks" / "perf" / "ladder.py"
)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_rung_table_is_valid():
    workloads = ladder.cells.WORKLOADS
    # A rung is registered beside the suite's workloads while measured.
    assert not set(ladder.RUNGS) & set(workloads)
    for name, rung in ladder.RUNGS.items():
        for smoke in (False, True):
            config, *rest = rung.args(0, smoke)
            base, *base_rest = workloads[rung.workload].args(0, smoke)
            assert type(config) is type(base) and rest == base_rest, name
        config = rung.args(0, False)[0]
        for field, value in rung.overrides.items():
            assert getattr(config, field) == value, name
    reference = ladder.RUNGS["live-1k"].args(0, False)[0]
    engine = ladder.RUNGS["live-1k-object"].args(0, False)[0]
    differ = {
        f.name for f in dataclasses.fields(reference)
        if getattr(reference, f.name) != getattr(engine, f.name)
    }
    assert differ == {"engine"}
    assert engine.engine == "object"


def test_object_rung_reproduces_the_columnar_digest(monkeypatch):
    monkeypatch.setattr(ladder.run, "IMPORT_PROBES", 0)
    columnar = ladder.measure_rung("live-1k", smoke=True)
    reference = ladder.measure_rung("live-1k-object", smoke=True)
    for record in (columnar, reference):
        ladder.perf_common.validate_record(record)
        assert record["correct"], record["problems"]
        assert record["name"] not in ladder.cells.WORKLOADS
    sites = columnar["memory_sites"]["sites"]
    assert 0 < len(sites) <= ladder.MEMORY_SITES
    assert all(site["mib"] > 0 and not site["site"].startswith("/") for site in sites)
    assert "memory_sites" not in reference
    assert reference["parameters"]["engine"] == "object"
    assert reference["sim_digest"] == columnar["sim_digest"]
    assert reference["events"] == columnar["events"]
