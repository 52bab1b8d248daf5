"""Smoke + shape tests for the experiment drivers (scaled down)."""

import math

import pytest

from repro.experiments import (
    DhtExperimentConfig,
    Fig5Config,
    Fig8Config,
    run_cell,
    run_dht_cell,
    run_fig8_scenario,
)
from repro.experiments.fig8_worm_propagation import DEFAULT_HORIZONS
from repro.worm import WormScenarioConfig


def _by_system(rows, field, operation):
    return {r.system: getattr(r, field) for r in rows if r.operation == operation}

FIG5_CFG = Fig5Config(num_nodes=60, duration_s=420.0, warmup_s=60.0)


@pytest.fixture(scope="module")
def fig5_rows():
    return {
        system: run_cell(FIG5_CFG, system, mean_lifetime_s=3600.0)
        for system in ("chord-transitive", "chord-recursive", "verme")
    }


def test_fig5_all_systems_complete_lookups(fig5_rows):
    for row in fig5_rows.values():
        assert row.lookups > 50
        assert row.failure_rate < 0.05
        assert not math.isnan(row.mean_latency_s)


def test_fig5_transitive_beats_recursive(fig5_rows):
    assert (
        fig5_rows["chord-transitive"].mean_latency_s
        < fig5_rows["chord-recursive"].mean_latency_s
    )


def test_fig5_verme_close_to_recursive_chord(fig5_rows):
    """The paper's headline: Verme ~ recursive Chord (within ~20%)."""
    verme = fig5_rows["verme"].mean_latency_s
    recursive = fig5_rows["chord-recursive"].mean_latency_s
    assert abs(verme - recursive) / recursive < 0.25


def test_fig5_maintenance_bandwidth_same_order(fig5_rows):
    """§7.1.2 text: maintenance bandwidth does not differ wildly."""
    chord = fig5_rows["chord-recursive"].maintenance_bytes_per_node_s
    verme = fig5_rows["verme"].maintenance_bytes_per_node_s
    assert 0.3 < verme / chord < 3.0


def test_fig5_unknown_system_rejected():
    with pytest.raises(ValueError):
        run_cell(FIG5_CFG, "pastry", 3600.0)


DHT_CFG = DhtExperimentConfig(num_nodes=120, num_sections=16, num_puts=15, num_gets=15)


@pytest.fixture(scope="module")
def dht_results():
    return {
        system: run_dht_cell(DHT_CFG, system)
        for system in ("dhash", "fast-verdi", "secure-verdi", "compromise-verdi")
    }


def test_dht_ops_mostly_succeed(dht_results):
    for system, res in dht_results.items():
        assert res.put_stats.successes >= 13, system
        assert res.get_stats.successes >= 13, system


def test_fig7_get_bandwidth_shape(dht_results):
    rows = []
    for res in dht_results.values():
        rows.extend(res.rows())
    by_system = _by_system(rows, "mean_bytes", "get")
    # DHash ~ Fast; Compromise roughly doubles; Secure pays per hop.
    assert by_system["fast-verdi"] < 1.4 * by_system["dhash"]
    assert by_system["compromise-verdi"] > 1.4 * by_system["dhash"]
    assert by_system["secure-verdi"] > by_system["compromise-verdi"]


def test_fig7_put_bandwidth_shape(dht_results):
    rows = []
    for res in dht_results.values():
        rows.extend(res.rows())
    by_system = _by_system(rows, "mean_bytes", "put")
    # The VerDi puts all pay an extra cross-type copy over DHash.
    assert by_system["fast-verdi"] > 1.5 * by_system["dhash"]
    assert by_system["compromise-verdi"] > by_system["fast-verdi"]


def test_fig6_get_latency_shape(dht_results):
    rows = []
    for res in dht_results.values():
        rows.extend(res.rows())
    by_system = _by_system(rows, "mean_latency_s", "get")
    # Fast ~ DHash (within 25% at this scale).
    assert abs(by_system["fast-verdi"] - by_system["dhash"]) / by_system["dhash"] < 0.4
    # Everything beats nothing: VerDi variants are not faster than Fast
    # by more than noise.
    assert by_system["secure-verdi"] > 0
    assert by_system["compromise-verdi"] > by_system["fast-verdi"]


def test_fig6_put_latency_shape(dht_results):
    rows = []
    for res in dht_results.values():
        rows.extend(res.rows())
    by_system = _by_system(rows, "mean_latency_s", "put")
    assert by_system["dhash"] == min(by_system.values())


def test_dht_unknown_system_rejected():
    with pytest.raises(ValueError):
        run_dht_cell(DHT_CFG, "kademlia")


def test_fig8_scenario_rows():
    cfg = Fig8Config(
        scenario_config=WormScenarioConfig(num_nodes=600, num_sections=32, seed=1),
        runs=2,
        horizons={"verme": 100.0},
    )
    row, curves = run_fig8_scenario(cfg, "verme")
    assert row.scenario == "verme"
    assert len(curves) == 2
    assert row.population == 600
    assert row.final_infected < 0.2 * row.vulnerable
    assert row.time_to_50pct_s is None


def test_fig8_default_horizons_cover_all_scenarios():
    from repro.worm import SCENARIOS

    assert set(DEFAULT_HORIZONS) == set(SCENARIOS)
