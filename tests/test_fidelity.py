"""The fidelity ledger: the committed record judges as it was judged,
a live run measures every claim, and a run that produced nothing fails
loudly instead of being judged."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments import (
    DhtExperimentConfig,
    Fig5Config,
    Fig8Config,
    ResilienceConfig,
    fidelity,
)
from repro.worm import WormScenarioConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
RECORD = json.loads((REPO_ROOT / "FIDELITY.json").read_text())

#: Every section at seconds scale: large enough that each claim has
#: something to measure, not that it holds.
TINY = {
    "fig5": Fig5Config(num_nodes=40, num_sections=4, duration_s=300.0, warmup_s=60.0,
                       mean_lifetimes_s=(1800.0, 28800.0), engine="columnar"),
    "dht": DhtExperimentConfig(num_nodes=60, num_sections=4, num_puts=4, num_gets=4,
                               engine="columnar"),
    "fig8": Fig8Config(
        scenario_config=WormScenarioConfig(num_nodes=1000, num_sections=64, seed=10),
        runs=1,
    ),
    "resilience": ResilienceConfig(),
    "ablations": WormScenarioConfig(num_nodes=600, num_sections=32, seed=9),
}


def test_committed_verdicts_recompute_from_committed_rows():
    assert fidelity.judge(RECORD["rows"]) == RECORD["claims"]


def test_committed_failures_are_exactly_the_declared_deviations():
    failing = {v["name"] for v in RECORD["claims"] if not v["holds"]}
    declared = {claim.name for claim in fidelity.CLAIMS if claim.deviation}
    assert failing == declared == {"fig8.chord_sweep_time", "fig6.put_secure_highest"}
    assert fidelity.unexpected(RECORD) == []


def test_committed_configs_are_the_scales_of_record():
    live = json.loads(json.dumps(
        {name: asdict(cfg) for name, cfg in fidelity.SCALE.items()}
    ))
    assert RECORD["configs"] == live
    # Fig. 8 run 0 draws seed config.seed + 1.
    assert fidelity.SCALE["fig8"].scenario_config.seed + 1 == 11


def test_unexpected_names_both_directions():
    record = copy.deepcopy(RECORD)
    for verdict in record["claims"]:
        if verdict["name"] in ("fig5.transitive_below_verme", "fig8.chord_sweep_time"):
            verdict["holds"] = not verdict["holds"]
    assert fidelity.unexpected(record) == [
        "fig5.transitive_below_verme", "fig8.chord_sweep_time"
    ]


@pytest.fixture(scope="module")
def tiny_record():
    return fidelity.run_ledger(TINY)


def test_live_run_measures_every_claim(tiny_record):
    claims = tiny_record["claims"]
    assert [v["name"] for v in claims] == [claim.name for claim in fidelity.CLAIMS]
    assert all(math.isfinite(v["measured"]) for v in claims)
    # The record survives its own file format unchanged.
    assert json.loads(fidelity.dumps(tiny_record)) == json.loads(
        json.dumps(tiny_record)
    )
    assert fidelity.judge(json.loads(fidelity.dumps(tiny_record))["rows"]) == claims


def test_nan_row_raises_naming_the_row():
    rows = copy.deepcopy(RECORD["rows"])
    rows["fig5"][0]["mean_latency_s"] = float("nan")
    with pytest.raises(fidelity.DegenerateLedger,
                       match=r"rows\.fig5\[chord-transitive/900\.0\]\.mean_latency_s is nan"):
        fidelity.judge(rows)


@pytest.mark.parametrize("section, index, field", [
    ("fig5", 4, "lookups"),
    ("dht", 3, "operations"),
    ("fig8", 1, "vulnerable"),
    ("resilience", 1, "lookups"),
])
def test_section_that_did_nothing_raises(section, index, field):
    rows = copy.deepcopy(RECORD["rows"])
    rows[section][index][field] = 0
    with pytest.raises(fidelity.DegenerateLedger, match=rf"rows\.{section}\[.*\]\.{field} is 0"):
        fidelity.judge(rows)


def test_quantity_never_reached_raises_naming_the_claim():
    rows = copy.deepcopy(RECORD["rows"])
    chord = next(r for r in rows["fig8"] if r["scenario"] == "chord")
    chord["time_to_95pct_s"] = None
    with pytest.raises(fidelity.DegenerateLedger, match=r"claim fig8\.chord_fast"):
        fidelity.judge(rows)


def test_bounds_are_open_intervals():
    assert fidelity.above(1.0)(1.01) and not fidelity.above(1.0)(1.0)
    assert fidelity.below(0.5)(0.49) and not fidelity.below(0.5)(0.5)
    assert str(fidelity.Bound(16.0, 64.0)) == "(16, 64)"
    assert str(fidelity.above(0.99)) == "> 0.99"
