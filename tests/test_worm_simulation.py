"""Tests for the worm engine's oracle on hand-built graphs."""

import pytest

from repro.sim import Simulator
from repro.worm import WormParams, WormState
from repro.worm.knowledge import GraphKnowledge
from repro.worm.simulation import WormSimulation


def run_worm(graph, vulnerable, seed=0, params=None, until=1000.0):
    sim = Simulator()
    worm = WormSimulation(
        sim,
        num_nodes=len(vulnerable),
        vulnerable=vulnerable,
        knowledge=GraphKnowledge(graph),
        params=params or WormParams(),
    )
    worm.seed(seed)
    worm.run(until=until)
    return worm


def test_chain_infection_timing():
    """0 -> 1 -> 2, with the paper's semantics: the seed scans
    immediately (10 ms) and infects (100 ms); the *target* then waits
    the 1 s activation delay before scanning onward."""
    worm = run_worm({0: [1], 1: [2], 2: []}, [True] * 3)
    assert worm.infected_count == 3
    times = dict((count, t) for t, count in worm.curve.points)
    assert times[1] == pytest.approx(0.0)
    # Node 1: scan 0.01 + infect 0.1.
    assert times[2] == pytest.approx(0.11)
    # Node 2: node 1 activates at 0.11 + 1.0, then scan + infect.
    assert times[3] == pytest.approx(0.11 + 1.0 + 0.11)


def test_invulnerable_nodes_never_infected():
    worm = run_worm({0: [1, 2], 1: [], 2: []}, [True, False, True])
    assert worm.infected_count == 2
    assert worm.state[1] is WormState.NOT_INFECTED


def test_scan_of_invulnerable_costs_a_slot():
    """Probing a non-vulnerable target takes a scan interval."""
    worm = run_worm({0: [1, 2], 1: [], 2: []}, [True, False, True])
    times = dict((count, t) for t, count in worm.curve.points)
    # Two scans (miss on 1, hit on 2) plus the infection time.
    assert times[2] == pytest.approx(0.02 + 0.1)


def test_already_infected_target_skipped():
    worm = run_worm({0: [1], 1: [0, 2], 2: []}, [True] * 3)
    assert worm.infected_count == 3
    # No double counting.
    counts = [c for _t, c in worm.curve.points]
    assert counts == sorted(set(counts))


def test_disconnected_component_survives():
    worm = run_worm({0: [1], 1: [], 5: [6], 6: []}, [True] * 7)
    assert worm.infected_count == 2
    assert worm.state[5] is WormState.NOT_INFECTED


def test_fanout_infections_serialized_by_attacker():
    """One attacker infects many targets one at a time."""
    n = 11
    worm = run_worm({0: list(range(1, n))}, [True] * n)
    assert worm.infected_count == n
    times = [t for t, _c in worm.curve.points]
    assert times == sorted(times)
    # Each infection costs the attacker infect_time + a scan interval.
    assert times[-1] >= (n - 1) * 0.11 - 1e-9


def test_add_targets_wakes_idle_scanner():
    sim = Simulator()
    worm = WormSimulation(
        sim, 3, [True] * 3, GraphKnowledge({0: [], 1: [], 2: []})
    )
    worm.seed(0)
    sim.run(until=10)
    assert worm.infected_count == 1  # nothing to scan: idle
    worm.add_targets(0, [1])
    sim.run(until=20)
    assert worm.infected_count == 2
    worm.add_targets(0, [1])  # duplicate: ignored
    worm.add_targets(0, [2])
    sim.run(until=30)
    assert worm.infected_count == 3


def test_add_targets_to_uninfected_node_ignored():
    sim = Simulator()
    worm = WormSimulation(sim, 2, [True] * 2, GraphKnowledge({}))
    worm.add_targets(0, [1])
    sim.run(until=10)
    assert worm.infected_count == 0


def test_self_targets_ignored():
    worm = run_worm({0: [0, 1], 1: []}, [True, True])
    assert worm.infected_count == 2


def test_seed_idempotent():
    sim = Simulator()
    worm = WormSimulation(sim, 2, [True] * 2, GraphKnowledge({0: [1]}))
    worm.seed(0)
    worm.seed(0)
    sim.run(until=10)
    assert worm.infected_count == 2


def test_vulnerable_mask_length_checked():
    with pytest.raises(ValueError):
        WormSimulation(Simulator(), 3, [True], GraphKnowledge({}))


def test_concurrent_attackers_single_infection():
    """Two attackers racing for one target: exactly one infection."""
    worm = run_worm({0: [1, 2], 1: [2], 2: []}, [True] * 3)
    assert worm.infected_count == 3
    assert worm.infections_completed == 2  # 1 and 2, each once


def test_scans_counted():
    worm = run_worm({0: [1, 2, 3], 1: [], 2: [], 3: []}, [True, False, False, True])
    assert worm.scans_performed == 3


def test_infecting_attacker_loses_race_returns_to_scanning():
    """An attacker mid-INFECTING whose target is infected by a third
    node first must return to SCANNING without double-counting
    ``infections_completed`` or re-recording the curve."""
    sim = Simulator()
    worm = WormSimulation(
        sim, 4, [True] * 4, GraphKnowledge({0: [2], 1: [2, 3], 2: [], 3: []})
    )
    # Two seeds race for node 2: node 0 (seeded first, so its
    # _infection_done fires first among ties) wins; node 1 loses.
    worm.seed(0)
    worm.seed(1)

    # Both scan at t=0.01 and schedule infection completion at t=0.11.
    sim.run(until=0.105)
    assert worm.state[0] is WormState.INFECTING
    assert worm.state[1] is WormState.INFECTING
    assert worm.infections_completed == 0

    # At t=0.11 node 0 completes; node 1 finds 2 already infected.
    sim.run(until=0.115)
    assert worm.state[2] is not WormState.NOT_INFECTED
    assert worm.infections_completed == 1          # not double-counted
    assert worm.infected_count == 3                # 0, 1, 2
    assert worm.state[1] is WormState.SCANNING     # loser resumed scanning

    # The loser keeps working through its queue: it infects node 3.
    sim.run(until=10.0)
    assert worm.infected_count == 4
    assert worm.infections_completed == 2          # 2 and 3, once each
    # The curve records each infection exactly once, monotonically.
    counts = [c for _t, c in worm.curve.points]
    assert counts == [1, 2, 3, 4]
