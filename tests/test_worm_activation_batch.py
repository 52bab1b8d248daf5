"""The columnar worm engine's window batch of knowledge extraction.

One ``targets_of_many`` call serves the activating cohort and, behind
it, the activation buckets already pending.  Rows are computed before
the nodes activate but appended to their queues only at activation, so
every run must equal the legacy engine and a one-bucket-at-a-time
reference (a batch cap of one node) on the curve, the scan count, the
logical event count and every node's queue.
"""

import random

import pytest

import repro.worm.columnar as columnar
from repro.ids import IdSpace
from repro.overlay import StaticOverlay
from repro.sim import Simulator
from repro.worm import (
    ColumnarWormSimulation,
    WormScenarioConfig,
    build_chord_population,
    chord_knowledge,
    run_scenario,
)
from repro.worm.simulation import WormSimulation

SPACE = IdSpace(32)


def _overlay(n, seed):
    ids = random.Random(seed).sample(range(SPACE.size), n)
    return StaticOverlay.from_ids(SPACE, ids)


def _queue(worm, index):
    """The node's known-but-unscanned targets, in scan order."""
    if isinstance(worm, WormSimulation):
        return list(worm._queues.get(index, ()))
    if worm._q_start[index] == -1:
        return []
    return list(worm._arena[worm._q_head[index] : worm._q_end[index]])


def _observe(worm):
    return (
        list(worm.curve.points),
        worm.scans_performed,
        [_queue(worm, i) for i in range(worm.num_nodes)],
    )


def _build(engine, overlay, vulnerable):
    sim = Simulator()
    knowledge = chord_knowledge(overlay, num_successors=5)
    return sim, engine(sim, len(overlay), vulnerable, knowledge)


def _run_three(monkeypatch, overlay, vulnerable, drive, probe=None):
    """Drive the legacy engine, the one-bucket reference and the window
    batch identically, assert they agree, and return the window-batch
    worm.  ``drive`` schedules ``probe(worm)`` on the window-batch run
    only, to check that the case under test really arose."""
    results = {}
    worms = {}
    for name, engine, cap in (
        ("legacy", WormSimulation, None),
        ("one-bucket", ColumnarWormSimulation, 1),
        ("window", ColumnarWormSimulation, columnar._KNOWLEDGE_BATCH),
    ):
        if cap is not None:
            monkeypatch.setattr(columnar, "_KNOWLEDGE_BATCH", cap)
        sim, worm = _build(engine, overlay, vulnerable)
        drive(sim, worm, probe if name == "window" else None)
        results[name] = _observe(worm)
        worms[name] = worm
    assert results["window"] == results["legacy"]
    assert results["window"] == results["one-bucket"]
    assert worms["window"].logical_events == worms["one-bucket"].logical_events
    return worms["window"]


def test_feed_before_activation_queues_feed_first(monkeypatch):
    """A harvester feeds an infected node after the window batch has
    computed its rows but before it activates: the fed targets come
    first, then the knowledge rows without the duplicates."""
    overlay = _overlay(300, 1)
    vulnerable = [i % 3 != 0 for i in range(len(overlay))]
    late = 150
    knowledge = chord_knowledge(overlay, num_successors=5)
    fed = [knowledge.targets_of(late)[2], 7, 8, late]
    seen = {}

    def probe(worm):
        seen["covered"] = 0.5 in worm._rows

    def drive(sim, worm, probe):
        worm.seed(0)
        worm.seed(late, delay_s=0.5)
        sim.call_after(0.25, lambda: worm.add_targets(late, fed))
        if probe is not None:
            sim.call_after(0.2, probe, worm)
        worm.run(until=0.505)  # activated, first scan not yet fired
        seen.setdefault(type(worm), []).append(_queue(worm, late))
        worm.run(until=200.0)

    _run_three(monkeypatch, overlay, vulnerable, drive, probe)
    assert seen["covered"], "the window batch never covered the late seed"
    legacy_queue = seen[WormSimulation][0]
    assert legacy_queue == list(dict.fromkeys(fed[:3] + knowledge.targets_of(late)))
    assert seen[ColumnarWormSimulation] == [legacy_queue, legacy_queue]


@pytest.mark.parametrize("size", [1, 40])
def test_bucket_growing_after_cover_gets_its_tail(monkeypatch, size):
    """A second ``seed`` lands on an activation bucket the window batch
    already covered; the bucket's new tail is extracted at drain."""
    overlay = _overlay(400, 2)
    vulnerable = [i % 2 == 0 for i in range(len(overlay))]
    first = list(range(10, 10 + size))
    later = list(range(200, 200 + size))
    covered = {}

    def probe(worm):
        covered["rows"] = worm._rows[5.0][0]

    def drive(sim, worm, probe):
        worm.seed(0)
        for i in first:
            worm.seed(i, delay_s=5.0)
        if probe is not None:
            sim.call_after(1.0, probe, worm)

        def second_seed():
            for i in later:
                worm.seed(i, delay_s=3.0)

        sim.call_after(2.0, second_seed)  # 2.0 + 3.0 == 5.0 exactly
        worm.run(until=300.0)

    worm = _run_three(monkeypatch, overlay, vulnerable, drive, probe)
    assert covered["rows"] == size
    assert not worm._rows


def test_split_run_equals_one_run(monkeypatch):
    """Buckets past the first horizon are not covered by the window
    batch; resuming the run must still give the one-run result."""
    overlay = _overlay(2000, 3)
    vulnerable = [i % 2 == 1 for i in range(len(overlay))]
    observed = []
    for until in ((3.0, 60.0), (60.0,)):
        sim, worm = _build(ColumnarWormSimulation, overlay, vulnerable)
        worm.seed(1)
        for stop in until:
            worm.run(until=stop)
            if stop == 3.0:
                assert worm._act_buckets, "no activation pending at the cut"
                assert not worm._rows  # nothing past the horizon covered
        observed.append((_observe(worm), worm.logical_events))
    assert observed[0] == observed[1]


def test_chord_20k_extracts_in_few_kernel_calls():
    """Structural pin: the window batch makes at most one
    ``targets_of_many`` call per 256 activations on a 20k Chord ring
    (per-bucket extraction makes one per activation bucket)."""
    config = WormScenarioConfig(num_nodes=20_000, num_sections=256, seed=5)
    rng = random.Random(config.seed)
    pop = build_chord_population(config, rng)
    knowledge = chord_knowledge(pop.overlay, config.num_successors)
    batch = knowledge.targets_of_many
    calls = []

    def counted(indices):
        calls.append(len(indices))
        return batch(indices)

    knowledge.targets_of_many = counted
    sim = Simulator()
    worm = ColumnarWormSimulation(
        sim, len(pop.overlay), pop.vulnerable, knowledge, config.params
    )
    worm.seed(rng.choice([i for i, v in enumerate(pop.vulnerable) if v]))
    worm.run(until=200.0)
    activations = worm.infected_count
    assert activations >= 0.99 * pop.vulnerable_count
    assert sum(calls) == activations  # no node extracted twice
    assert len(calls) <= activations / 256


@pytest.mark.parametrize("scenario", ["chord", "verme-fast"])
def test_wide_ring_batches_scalar_rows(worm_oracle, scenario):
    """On a 160-bit ring the kernel returns plain lists from its scalar
    path; the window batch must still match the legacy engine."""
    config = WormScenarioConfig(num_nodes=1000, num_sections=64, seed=3, id_bits=160)
    with worm_oracle():
        legacy = run_scenario(scenario, config, until=300.0)
    window = run_scenario(scenario, config, until=300.0)
    assert window.curve.points == legacy.curve.points
    assert window.scans_performed == legacy.scans_performed
