"""Self-tests of the benchmark harness (``pytest benchmarks/suite -q``).

Not part of tier-1.  Three groups: the externally composed cells
return the rows the experiment drivers of record return (so the
benchmark cannot drift from them), the output meets the contract in
``BENCHMARK.json``, and degenerate runs raise instead of reporting.
Everything runs at ``--smoke`` scale.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE.parents[1] / "src"))
sys.path.insert(0, str(SUITE))

import cells  # noqa: E402
import run  # noqa: E402
from repro.experiments import summarise_fig8_runs  # noqa: E402
from repro.experiments.dht_ops import (  # noqa: E402
    DHT_SYSTEMS,
    rows_for_figure,
    run_dht_cell_instrumented,
)
from repro.experiments.fig5_lookup_latency import run_cell_instrumented  # noqa: E402
from repro.experiments.overload import POLICIES, run_overload_cell  # noqa: E402
from repro.worm import run_scenario  # noqa: E402

# The self-tests time only the in-process import, not fresh interpreters.
run.IMPORT_PROBES = 0
CONTRACT = run.load_contract()
NAMES = [w["name"] for w in CONTRACT["workloads"]]
SEED = 5


# -- harness vs driver equivalence ------------------------------------------


@pytest.mark.parametrize("name", ["fig5_churn_1k", "ring_scale_10k"])
def test_fig5_cells_match_run_cell_instrumented(name):
    config, *rest = cells.WORKLOADS[name].args(SEED, True)
    systems = rest[0] if rest else cells.FIG5_SYSTEMS
    cell = cells.fig5_cell(cells.Spans(), name, config, *rest)
    expected = [
        run_cell_instrumented(config, s, cells.MEAN_LIFETIME_S) for s in systems
    ]
    assert cell.rows == [row for row, _ in expected]
    assert cell.events == sum(events for _, events in expected)


def test_serving_cell_matches_run_overload_cell():
    (config,) = cells.WORKLOADS["serving_spike"].args(SEED, True)
    cell = cells.serving_cell(cells.Spans(), "serving_spike", config)
    expected = [run_overload_cell(config, policy) for policy in POLICIES]
    assert cell.rows == [row for row, _ in expected]
    assert cell.events == sum(events for _, events in expected)


def test_dht_cell_matches_run_dht_cell_instrumented():
    config, _ = cells.WORKLOADS["dht_putget"].args(SEED, True)
    # The driver's drain, not the benchmark's shortened one.
    cell = cells.dht_cell(
        cells.Spans(), "dht_putget", config, cells.DHT_DRIVER_DRAIN_S
    )
    expected = [run_dht_cell_instrumented(config, s) for s in DHT_SYSTEMS]
    assert cell.rows == rows_for_figure([res for res, _ in expected])
    assert cell.events == sum(events for _, events in expected)


def test_worm_cell_matches_run_scenario():
    config, until = cells.WORKLOADS["worm_fig8_100k"].args(SEED, True)
    cell = cells.worm_cell(cells.Spans(), "worm_fig8_100k", config, until)
    expected = [run_scenario(s, config, until=until) for s in cells.WORM_SCENARIOS]
    assert cell.rows == [summarise_fig8_runs(r.scenario, [r]) for r in expected]
    assert cell.events == sum(r.events for r in expected)
    assert cell.ops == sum(r.scans_performed for r in expected)


# -- contract ----------------------------------------------------------------


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced smoke record per workload."""
    return {
        name: (
            run.measure(name, SEED, seconds=0.0, traced=False, smoke=True),
            run.measure(name, SEED, seconds=0.0, traced=True, smoke=True),
        )
        for name in NAMES
    }


def test_contract_file_is_within_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert NAMES == list(cells.WORKLOADS)
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    declared = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(declared) == len(set(declared))
    for name in declared + NAMES:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_printed_names_equal_declared_names(records):
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    seen = set()
    for plain, traced in records.values():
        assert set(run.result_line(plain, CONTRACT)["metrics"]) == end_to_end
        assert set(run.result_line(traced, CONTRACT)["metrics"]) == per_layer
        assert set(plain["metrics"]) <= end_to_end | per_layer
        seen |= set(traced["metrics"])
    # every declared metric is produced by at least one workload
    assert seen == end_to_end | per_layer


def test_result_line_shape_and_values(records):
    for plain, traced in records.values():
        for record in (plain, traced):
            line = run.result_line(record, CONTRACT)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True
            assert line["attempted"] >= 1 and line["failed"] == 0
            for name, entry in line["metrics"].items():
                assert math.isfinite(entry["value"]), name
            json.dumps(line)
        for metric in CONTRACT["end_to_end"]:
            assert plain["metrics"][metric["name"]] > 0, metric["name"]


def test_digests_repeat_and_survive_tracing(records):
    for plain, traced in records.values():
        assert plain["repeats"] >= run.MIN_REPEATS
        assert plain["sim_digest"] == traced["sim_digest"]
        assert plain["ops"] == traced["ops"]


def test_trace_covers_the_run(records):
    for name, (_, traced) in records.items():
        metrics = traced["metrics"]
        assert metrics["trace.unmapped_share"] < 0.05, name
        assert metrics["trace.overhead_ratio"] > 0
        mapped = sum(
            v for k, v in metrics.items()
            if k.startswith("trace.") and k.endswith(".self_s")
        )
        assert mapped > 0, name


def test_spans_nest_under_their_repeat(records):
    plain, _ = records["serving_spike"]
    spans = plain["spans"]
    for span in spans:
        assert span["end"] >= span["start"]
        if span["name"] not in ("repeat", "import.wall_s"):
            parent = spans[span["parent"]]
            assert parent["name"] == "repeat"
            assert parent["repeat"] == span["repeat"]


# -- degenerate-run guards ---------------------------------------------------


def test_warmup_past_horizon_raises_with_workload_name():
    (config,) = cells.WORKLOADS["fig5_churn_1k"].args(SEED, True)
    broken = replace(config, warmup_s=config.duration_s)
    with pytest.raises(cells.DegenerateRun, match="fig5_churn_1k.*warmup"):
        cells.fig5_cell(cells.Spans(), "fig5_churn_1k", broken)


def test_zero_lookups_raise():
    (config,) = cells.WORKLOADS["fig5_churn_1k"].args(SEED, True)
    # Warmup ends a hair before the horizon: built, run, nothing measured.
    broken = replace(config, duration_s=5.0, warmup_s=4.999)
    with pytest.raises(cells.DegenerateRun, match="zero lookups"):
        cells.fig5_cell(cells.Spans(), "fig5_churn_1k", broken, ("verme",))


def test_empty_population_raises():
    config, until = cells.WORKLOADS["worm_fig8_100k"].args(SEED, True)
    with pytest.raises(cells.DegenerateRun, match="worm_fig8_100k.*empty"):
        cells.worm_cell(
            cells.Spans(), "worm_fig8_100k", replace(config, num_nodes=0), until
        )
    config, drain = cells.WORKLOADS["dht_putget"].args(SEED, True)
    with pytest.raises(cells.DegenerateRun, match="dht_putget.*zero operations"):
        cells.dht_cell(cells.Spans(), "dht_putget", replace(config, num_puts=0), drain)


def test_non_finite_row_raises():
    (config,) = cells.WORKLOADS["fig5_churn_1k"].args(SEED, True)
    row = cells.fig5_cell(cells.Spans(), "t", config, ("verme",)).rows[0]
    with pytest.raises(cells.DegenerateRun, match="non-finite mean_latency_s"):
        cells._check_finite("t", [replace(row, mean_latency_s=math.nan)])


def test_failed_check_fails_the_run(monkeypatch, capsys, tmp_path):
    workload = cells.WORKLOADS["serving_spike"]

    def always_wrong(cell):
        cell.problems.append("forced failure")

    # Full-scale runs apply the shape check; keep the cell smoke-sized.
    broken = replace(
        workload, check=always_wrong, args=lambda seed, smoke: workload.args(seed, True)
    )
    monkeypatch.setitem(cells.WORKLOADS, "serving_spike", broken)
    status = run.main(
        ["--workload", "serving_spike", "--seconds", "0", "--out-dir", str(tmp_path)]
    )
    assert status == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
