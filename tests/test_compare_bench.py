"""``scripts/compare_bench.py`` refuses degenerate and mismatched records.

A record that measured nothing (no events, zero lookups) or carries a
non-finite or bool number must fail ``--check`` with exit 2 — alone, or
as one rung of a ladder's list, which the error names — so it can never
be committed as a baseline; a parameter mismatch must say which keys
differ.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "scripts" / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_bench)


def _record(**overrides):
    record = {
        "name": "fig5",
        "schema_version": 1,
        "wall_clock_s": 2.0,
        "events": 1000,
        "events_per_s": 500.0,
        "peak_rss_kib": 1,
        "seed": 0,
        "machine": {},
        "parameters": {"nodes": 120, "horizon": 1800.0},
        "metrics": {"lookups": 50.0, "mean_latency_s": 0.6},
    }
    record.update(overrides)
    return record


def _check(tmp_path, record, capsys):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(record))
    code = compare_bench.main(["--check", str(path)])
    return code, capsys.readouterr().err


def test_well_formed_record_passes(tmp_path, capsys):
    assert _check(tmp_path, _record(), capsys)[0] == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"metrics": {"lookups": 0.0, "mean_latency_s": 0.6}}, "no lookups"),
        ({"metrics": {"shed.lookups": 0.0}}, "no lookups"),
        ({"metrics": {"lookups": 5.0, "mean_latency_s": math.nan}}, "not finite"),
        ({"metrics": {"lookups": 5.0, "failure_rate": math.inf}}, "not finite"),
        ({"events_per_s": math.nan}, "not finite"),
        ({"events": 0, "events_per_s": 0.0}, "events must be positive"),
        ({"metrics": {"lookups": True}}, "lookups is a bool"),
    ],
)
def test_degenerate_records_are_rejected(tmp_path, capsys, overrides, message):
    code, err = _check(tmp_path, _record(**overrides), capsys)
    assert code == 2
    assert message in err


def test_list_of_rungs_passes(tmp_path, capsys):
    rungs = [_record(name="live-1k"), _record(name="worm-1m")]
    assert _check(tmp_path, rungs, capsys)[0] == 0


def test_one_degenerate_rung_fails_the_list_and_is_named(tmp_path, capsys):
    rungs = [_record(name="live-1k"), _record(name="live-100k", events=0)]
    code, err = _check(tmp_path, rungs, capsys)
    assert code == 2
    assert "rung 1 (live-100k): events must be positive" in err


def test_parameter_mismatch_prints_a_key_by_key_diff():
    baseline = _record()
    current = _record(parameters={"nodes": 120, "horizon": 900.0, "warmup_s": 5.0})
    with pytest.raises(ValueError) as info:
        compare_bench.compare(baseline, current, 0.15)
    lines = str(info.value).splitlines()[1:]
    assert lines == [
        "  horizon: 1800.0 -> 900.0",
        "  warmup_s: '<missing>' -> 5.0",
    ]
