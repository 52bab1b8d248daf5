"""Integration tests for the Fig. 8 scenarios at small scale: the
containment *ordering* must reproduce."""

import pytest

from repro.worm import (
    SCENARIOS,
    WormScenarioConfig,
    build_chord_population,
    build_verme_population,
    run_scenario,
)

CFG = WormScenarioConfig(num_nodes=1500, num_sections=64, seed=7)


@pytest.fixture(scope="module")
def results():
    horizons = {
        "chord": 200.0,
        "verme": 200.0,
        "verme-secure": 200.0,
        "verme-fast": 1500.0,
        "verme-compromise": 15000.0,
    }
    return {
        name: run_scenario(name, CFG, until=until)
        for name, until in horizons.items()
    }


def test_chord_worm_sweeps_vulnerable_population(results):
    r = results["chord"]
    assert r.final_infected >= 0.95 * r.vulnerable_count


def test_chord_worm_fast(results):
    t95 = results["chord"].time_to_fraction(0.95)
    assert t95 is not None and t95 < 60.0


def test_verme_confines_to_one_section(results):
    r = results["verme"]
    # Average section holds ~ num_nodes/num_sections nodes; allow 3x.
    section_avg = CFG.num_nodes / CFG.num_sections
    assert r.final_infected <= 3 * section_avg
    assert r.final_infected < 0.05 * r.vulnerable_count


def test_secure_impersonation_logarithmic_sections(results):
    r = results["verme-secure"]
    section_avg = CFG.num_nodes / CFG.num_sections
    # O(log N) sections' worth of nodes, nowhere near the population.
    assert r.final_infected <= 40 * section_avg
    assert r.final_infected < 0.25 * r.vulnerable_count
    # But strictly worse than no impersonation.
    assert r.final_infected > results["verme"].final_infected


def test_fast_impersonation_eventually_spreads(results):
    r = results["verme-fast"]
    assert r.time_to_fraction(0.5) is not None


def test_compromise_slower_than_fast(results):
    """At paper scale the gap is ~10x; the coupon-collector tail makes
    it robust at the 95% mark even in this scaled-down setting."""
    fast = results["verme-fast"].time_to_fraction(0.95)
    comp = results["verme-compromise"].time_to_fraction(0.95)
    assert fast is not None and comp is not None
    assert comp > 3.0 * fast


def test_ordering_chord_fastest(results):
    """Chord saturates in a handful of worm generations; the harvested
    scenarios drag a coupon-collector tail behind them."""
    chord = results["chord"].time_to_fraction(0.95)
    fast = results["verme-fast"].time_to_fraction(0.95)
    assert chord is not None and fast is not None
    assert chord < fast


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_attacker_is_not_counted_as_a_victim(scenario):
    """The impersonator seeds three scenarios from its own non-vulnerable
    machine; run to the end, no scenario reports more infected victims
    than there are vulnerable nodes, and the last victim is the t100."""
    r = run_scenario(scenario, WormScenarioConfig(num_nodes=1000, num_sections=64, seed=3))
    assert r.final_infected <= r.vulnerable_count
    if r.final_infected == r.vulnerable_count:
        assert r.time_to_fraction(1.0) == r.curve.final_time


# -- population construction -----------------------------------------------------


def test_verme_population_half_vulnerable():
    pop = build_verme_population(CFG, __import__("random").Random(1))
    assert abs(pop.vulnerable_count - CFG.num_nodes // 2) <= 1
    assert pop.impersonator_index is None


def test_verme_population_types_match_ids():
    import random

    pop = build_verme_population(CFG, random.Random(2))
    layout = pop.overlay.layout
    for idx in range(0, len(pop.overlay), 97):
        assert pop.node_types[idx] == layout.type_of(pop.overlay.ids[idx])


def test_impersonator_claims_opposite_type_and_not_vulnerable():
    import random

    pop = build_verme_population(CFG, random.Random(3), with_impersonator=True)
    imp = pop.impersonator_index
    assert imp is not None
    layout = pop.overlay.layout
    assert layout.type_of(pop.overlay.ids[imp]) == int(CFG.victim_type.opposite)
    assert not pop.vulnerable[imp]


def test_chord_population_roughly_half_vulnerable():
    import random

    pop = build_chord_population(CFG, random.Random(4))
    frac = pop.vulnerable_count / len(pop.overlay)
    assert 0.4 < frac < 0.6


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("nope", CFG)


def test_scenarios_deterministic_per_seed():
    cfg = WormScenarioConfig(num_nodes=400, num_sections=32, seed=5)
    a = run_scenario("verme", cfg, until=100.0)
    b = run_scenario("verme", cfg, until=100.0)
    assert a.curve.points == b.curve.points
