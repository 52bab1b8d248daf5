"""Tests for CSV export of figure data."""

import csv

import pytest

from repro.analysis.export import write_rows_csv, write_series_csv
from repro.experiments.records import Fig8Row


def test_write_rows_csv(tmp_path):
    rows = [
        Fig8Row("chord", 100, 50, 50, 1.0, 2.0, 3.0),
        Fig8Row("verme", 100, 50, 5, None, None, None),
    ]
    path = write_rows_csv(tmp_path / "fig8.csv", rows)
    with path.open() as fh:
        data = list(csv.DictReader(fh))
    assert len(data) == 2
    assert data[0]["scenario"] == "chord"
    assert data[1]["time_to_50pct_s"] == ""


def test_write_rows_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_rows_csv(tmp_path / "x.csv", [])


def test_write_rows_csv_rejects_non_dataclass(tmp_path):
    with pytest.raises(TypeError):
        write_rows_csv(tmp_path / "x.csv", [{"a": 1}])


def test_write_series_csv(tmp_path):
    series = {
        "chord": [(0.1, 1.0), (1.0, 50.0)],
        "verme": [(0.1, 1.0), (1.0, 5.0)],
    }
    path = write_series_csv(tmp_path / "curves.csv", series)
    with path.open() as fh:
        data = list(csv.reader(fh))
    assert data[0] == ["time_s", "chord", "verme"]
    assert data[1] == ["0.1", "1.0", "1.0"]
    assert data[2] == ["1.0", "50.0", "5.0"]


def test_write_series_csv_mismatched_grid(tmp_path):
    series = {"a": [(0.1, 1.0)], "b": [(0.2, 1.0)]}
    with pytest.raises(ValueError):
        write_series_csv(tmp_path / "bad.csv", series)


def test_write_series_csv_empty(tmp_path):
    with pytest.raises(ValueError):
        write_series_csv(tmp_path / "x.csv", {})


def test_fig8_series_roundtrip(tmp_path):
    """End-to-end: run a tiny fig8, export, reload."""
    from repro.experiments import (
        Fig8Config,
        curve_series,
        fig8_curves,
        run_fig8_cells,
    )
    from repro.worm import WormScenarioConfig

    cfg = Fig8Config(
        scenario_config=WormScenarioConfig(num_nodes=300, num_sections=16, seed=2),
        runs=1,
        horizons={"chord": 60.0, "verme": 60.0},
    )
    results = run_fig8_cells(cfg, scenarios=("chord", "verme"), workers=1)
    series = curve_series(fig8_curves(results), cfg.horizons, grid_points=10)
    path = write_series_csv(tmp_path / "fig8_series.csv", series)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "chord", "verme"]
    assert len(rows) == 11
    final_chord = float(rows[-1][1])
    final_verme = float(rows[-1][2])
    assert final_chord > final_verme
