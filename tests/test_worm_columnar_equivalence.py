"""The columnar worm engine against its oracle, the per-event
:class:`~repro.worm.simulation.WormSimulation` ("legacy" below).

The columnar engine promises bit-for-bit identical
:class:`~repro.worm.model.InfectionCurve` results, not approximate
ones — these tests hold it to that on seeded 1k and 10k populations of
every Fig. 8 scenario, plus hand-built graphs that exercise the
batch-tick boundaries (mid-run harvester-style injections, idle wake).

Also here: the adversarial re-injection suite for both engines' target
dedup — repeatedly feeding a scanner addresses it has already scanned
must not grow its queue, wake it, or cost any scan slots.
"""

import pytest

from repro.sim import Simulator
from repro.worm import (
    SCENARIOS,
    ColumnarWormSimulation,
    WormParams,
    WormScenarioConfig,
    run_scenario,
)
from repro.worm.knowledge import GraphKnowledge
from repro.worm.simulation import WormSimulation

ENGINES = {"columnar": ColumnarWormSimulation, "legacy": WormSimulation}

#: Sim-time horizons long enough for every scenario to go quiescent at
#: these scales (the slow verme-* curves are harvester-rate-bound).
HORIZONS = {
    "chord": 200.0,
    "verme": 200.0,
    "verme-secure": 200.0,
    "verme-fast": 1500.0,
    "verme-compromise": 15000.0,
}


def _run_both(worm_oracle, scenario, config):
    until = HORIZONS[scenario]
    with worm_oracle():
        legacy = run_scenario(scenario, config, until=until)
    columnar = run_scenario(scenario, config, until=until)
    return legacy, columnar


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_curves_identical_1k(worm_oracle, scenario):
    config = WormScenarioConfig(num_nodes=1000, num_sections=64, seed=3)
    legacy, columnar = _run_both(worm_oracle, scenario, config)
    assert legacy.curve.points == columnar.curve.points
    assert legacy.scans_performed == columnar.scans_performed
    assert legacy.final_infected == columnar.final_infected


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_curves_identical_10k(worm_oracle, scenario):
    config = WormScenarioConfig(num_nodes=10_000, num_sections=256, seed=11)
    legacy, columnar = _run_both(worm_oracle, scenario, config)
    assert legacy.curve.points == columnar.curve.points
    assert legacy.scans_performed == columnar.scans_performed
    assert legacy.final_infected == columnar.final_infected


def test_different_seed_still_identical(worm_oracle):
    config = WormScenarioConfig(num_nodes=1000, num_sections=64, seed=42)
    legacy, columnar = _run_both(worm_oracle, "chord", config)
    assert legacy.curve.points == columnar.curve.points


# -- hand-built graphs: batch-tick boundaries ---------------------------------


def _build(engine, graph, vulnerable, params=None):
    sim = Simulator()
    worm = ENGINES[engine](
        sim,
        num_nodes=len(vulnerable),
        vulnerable=vulnerable,
        knowledge=GraphKnowledge(graph),
        params=params or WormParams(),
    )
    return sim, worm


@pytest.mark.parametrize(
    "graph,vulnerable",
    [
        ({0: [1], 1: [2], 2: []}, [True] * 3),
        ({0: [1, 2], 1: [], 2: []}, [True, False, True]),
        ({0: list(range(1, 11))}, [True] * 11),
        ({0: [1], 1: [0, 2], 2: []}, [True] * 3),
    ],
)
def test_fixed_graph_equivalence(graph, vulnerable):
    results = {}
    for engine in ENGINES:
        sim, worm = _build(engine, graph, vulnerable)
        worm.seed(0)
        worm.run(until=1000.0)
        results[engine] = (worm.curve.points, worm.scans_performed,
                          list(worm.state))
    assert results["columnar"] == results["legacy"]


def test_midrun_injection_equivalence():
    """A foreign event injecting targets mid-window must interleave with
    batch ticks exactly as it does with per-event scheduling."""
    graph = {0: [1], 1: [], 5: []}
    vulnerable = [True] * 6
    results = {}
    for engine in ENGINES:
        sim, worm = _build(engine, graph, vulnerable)
        worm.seed(0)
        # Node 1 has no knowledge of its own: it activates, goes idle,
        # and is woken by this injection landing between scan slots.
        sim.call_after(2.505, lambda w=worm: w.add_targets(1, [5, 0]))
        worm.run(until=100.0)
        results[engine] = (worm.curve.points, worm.scans_performed,
                          list(worm.state))
    assert results["columnar"] == results["legacy"]


# -- adversarial re-injection (dedup) -----------------------------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_reinjection_of_scanned_targets_is_inert(engine):
    """Re-feeding addresses a node has already scanned must not grow its
    queue, re-wake it, or cost scan slots."""
    sim, worm = _build(engine, {0: [1, 2]}, [True, True, True])
    worm.seed(0)
    worm.run(until=50.0)
    assert worm.infected_count == 3
    assert worm.pending_targets(0) == 0
    assert sim.pending_live == 0  # everything idle, nothing scheduled
    scans = worm.scans_performed
    for _ in range(5):
        worm.add_targets(0, [1, 2])
        assert worm.pending_targets(0) == 0
        assert sim.pending_live == 0  # no wake-up was scheduled
    worm.run(until=100.0)
    assert worm.scans_performed == scans


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_reinjection_mixed_with_fresh_target(engine):
    """A batch mixing stale addresses, the node itself, and one fresh
    address enqueues exactly the fresh one."""
    sim, worm = _build(engine, {0: [1, 2]}, [True, True, True, True])
    worm.seed(0)
    worm.run(until=50.0)
    scans = worm.scans_performed
    worm.add_targets(0, [0, 1, 2, 3, 3, 1])
    assert worm.pending_targets(0) == 1
    assert sim.pending_live == 1  # woken exactly once
    worm.run(until=100.0)
    assert worm.is_infected(3)
    assert worm.scans_performed == scans + 1
    # And the scanned fresh target is now stale too.
    worm.add_targets(0, [3])
    assert worm.pending_targets(0) == 0
    assert sim.pending_live == 0


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_repeated_reinjection_never_grows_queue(engine):
    """Hammering the same stale batch many times while the node is mid
    scan leaves the queue bounded by the number of distinct addresses."""
    graph = {0: list(range(1, 8))}
    sim, worm = _build(engine, graph, [True] * 8)
    worm.seed(0)
    worm.run(until=0.5)  # mid-propagation: queue partially scanned
    baseline = worm.pending_targets(0)
    for _ in range(10):
        worm.add_targets(0, list(range(1, 8)))
    assert worm.pending_targets(0) == baseline
    worm.run(until=100.0)
    assert worm.infected_count == 8
    # Every address was scanned at most once.
    assert worm.scans_performed == 7


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_injection_into_uninfected_node_ignored(engine):
    sim, worm = _build(engine, {}, [True, True])
    worm.add_targets(0, [1])
    assert worm.pending_targets(0) == 0
    assert sim.pending_live == 0
