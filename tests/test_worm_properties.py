"""Property-based tests of the worm engine's invariants.

Every generated setup runs on the engine of record,
:class:`ColumnarWormSimulation`, and on its oracle, the per-event
:class:`WormSimulation`; the curve, the scan count and the final states
must be equal before the property itself is checked.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.worm import ColumnarWormSimulation, WormParams, WormState
from repro.worm.knowledge import GraphKnowledge
from repro.worm.simulation import WormSimulation


@st.composite
def random_worm_setup(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    graph = {
        i: rng.sample(range(n), k=min(n, rng.randint(0, 5)))
        for i in range(n)
    }
    vulnerable = [rng.random() < 0.7 for i in range(n)]
    start = draw(st.integers(min_value=0, max_value=n - 1))
    return n, graph, vulnerable, start


def run_checked(setup, params=WormParams(), until=None):
    """Run ``setup`` on both engines, assert they agree, and return the
    columnar run's simulator and worm."""
    n, graph, vulnerable, start = setup
    runs = []
    for engine in (ColumnarWormSimulation, WormSimulation):
        sim = Simulator()
        worm = engine(sim, n, vulnerable, GraphKnowledge(graph), params)
        worm.seed(start)
        worm.run(until=until)
        runs.append((sim, worm))
    (sim, worm), (_, oracle) = runs
    assert worm.curve.points == oracle.curve.points
    assert worm.scans_performed == oracle.scans_performed
    assert worm.state == oracle.state
    return sim, worm


@settings(max_examples=60, deadline=None)
@given(random_worm_setup())
def test_curve_is_monotone_and_bounded(setup):
    _n, _graph, vulnerable, _start = setup
    _sim, worm = run_checked(setup, until=10_000.0)
    counts = [c for _t, c in worm.curve.points]
    times = [t for t, _c in worm.curve.points]
    assert counts == sorted(counts)
    assert times == sorted(times)
    assert counts[0] == 1  # the seed
    # Upper bound: vulnerable nodes plus the (possibly invulnerable) seed.
    assert worm.infected_count <= sum(vulnerable) + 1


@settings(max_examples=60, deadline=None)
@given(random_worm_setup())
def test_only_reachable_vulnerable_nodes_infected(setup):
    n, graph, vulnerable, start = setup
    _sim, worm = run_checked(setup, until=10_000.0)
    # BFS over vulnerable-reachable set (the seed spreads regardless of
    # its own vulnerability because the worm was implanted there).
    reachable = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in graph.get(node, []):
            if nxt not in reachable and vulnerable[nxt]:
                reachable.add(nxt)
                frontier.append(nxt)
    infected = {i for i in range(n) if worm.state[i] is not WormState.NOT_INFECTED}
    assert infected == reachable


@settings(max_examples=40, deadline=None)
@given(random_worm_setup(), st.integers(min_value=1, max_value=3))
def test_simulation_quiesces(setup, _fuzz):
    """With finite knowledge the event queue must drain: no livelock."""
    sim, _worm = run_checked(setup)  # no time bound: must terminate on its own
    assert sim.pending_events == 0


@settings(max_examples=30, deadline=None)
@given(random_worm_setup())
def test_faster_scan_rate_never_slower(setup):
    # 20/s, not 10/s: a 0.1 s scan interval would tie the default 0.1 s
    # infect time, which the columnar engine refuses.
    slow_finish, fast_finish = (
        run_checked(setup, WormParams(scan_rate_per_s=rate), until=100_000.0)[1]
        .curve.final_time
        for rate in (20.0, 1000.0)
    )
    assert fast_finish <= slow_finish + 1e-6


@pytest.mark.parametrize(
    "params,tie",
    [(WormParams(scan_rate_per_s=10.0), "0.1"), (WormParams(infect_time_s=0.01), "0.01")],
    ids=["scan-10-per-s", "infect-10ms"],
)
def test_columnar_refuses_infect_time_equal_to_scan_interval(params, tie):
    """At that tie the oracle orders completions and scans by scheduling
    sequence, which batch ticks cannot reproduce: the columnar engine
    refuses the parameters, naming both values, and the oracle runs."""
    graph = GraphKnowledge({0: [1, 2], 1: [2], 2: []})
    tie = re.escape(f"({tie})")
    with pytest.raises(ValueError, match=f"infect_time_s {tie}.*scan_interval_s {tie}"):
        ColumnarWormSimulation(Simulator(), 3, [True] * 3, graph, params)
    oracle = WormSimulation(Simulator(), 3, [True] * 3, graph, params)
    oracle.seed(0)
    oracle.run()
    assert oracle.infected_count == 3
