"""Tests for worm knowledge extraction and harvesters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.state import NodeInfo
from repro.ids import IdSpace, NodeType, VermeIdLayout
from repro.net import NodeAddress
from repro.overlay import StaticOverlay, VermeStaticOverlay
from repro.overlay.snapshot import _BATCH_CHUNK, NaiveFingerVermeOverlay
from repro.sim import Simulator
from repro.worm import (
    ColumnarWormSimulation,
    CompromiseVerDiHarvester,
    FastVerDiHarvester,
    ImpersonatorKnowledge,
    RoutingKnowledge,
    chord_knowledge,
    verme_knowledge,
)

SPACE = IdSpace(32)
LAYOUT = VermeIdLayout.for_sections(SPACE, 32)


def verme_overlay(n=600, seed=1, extra=None):
    rng = random.Random(seed)
    used = set()
    infos = []
    for i in range(n):
        nid = LAYOUT.random_id(rng, i % 2)
        while nid in used:
            nid = LAYOUT.random_id(rng, i % 2)
        used.add(nid)
        infos.append(NodeInfo(nid, NodeAddress(i)))
    if extra is not None:
        infos.append(extra)
    return VermeStaticOverlay(LAYOUT, infos)


def test_chord_knowledge_unfiltered():
    rng = random.Random(2)
    ids = sorted(rng.sample(range(SPACE.size), 200))
    overlay = StaticOverlay(SPACE, [NodeInfo(i, NodeAddress(n)) for n, i in enumerate(ids)])
    knowledge = chord_knowledge(overlay, num_successors=5)
    targets = knowledge.targets_of(0)
    assert len(targets) >= 5
    assert 0 not in targets


def test_verme_knowledge_same_type_only():
    overlay = verme_overlay()
    knowledge = verme_knowledge(overlay, 5, 5)
    for idx in range(0, len(overlay), 41):
        own_type = LAYOUT.type_of(overlay.ids[idx])
        for t in knowledge.targets_of(idx):
            assert LAYOUT.type_of(overlay.ids[t]) == own_type


def test_same_type_filter_requires_layout():
    overlay = verme_overlay()
    with pytest.raises(ValueError):
        RoutingKnowledge(overlay, same_type_only=True)


def test_chord_knowledge_with_layout_filter():
    """A layout reads types off any overlay's ids, Chord's included: the
    filtered targets are exactly the unfiltered ones of the node's type."""
    rng = random.Random(3)
    ids = sorted(rng.sample(range(SPACE.size), 100))
    overlay = StaticOverlay(SPACE, [NodeInfo(i, NodeAddress(n)) for n, i in enumerate(ids)])
    knowledge = RoutingKnowledge(
        overlay, num_successors=5, same_type_only=True, layout=LAYOUT
    )
    unfiltered = RoutingKnowledge(overlay, num_successors=5)
    for idx in (0, 10, 50):
        own = LAYOUT.type_of(ids[idx])
        expected = [t for t in unfiltered.targets_of(idx) if LAYOUT.type_of(ids[t]) == own]
        assert knowledge.targets_of(idx) == expected


def test_impersonator_knowledge_targets_victim_type():
    imp_id = LAYOUT.random_id(random.Random(9), NodeType.B)
    imp = NodeInfo(imp_id, NodeAddress(10_000))
    overlay = verme_overlay(extra=imp)
    base = verme_knowledge(overlay, 10, 10)
    imp_idx = overlay.index_of(imp_id)
    knowledge = ImpersonatorKnowledge(overlay=overlay, base=base,
                                      impersonator_index=imp_idx,
                                      victim_type=NodeType.A)
    targets = knowledge.targets_of(imp_idx)
    assert targets, "impersonator fingers must reach victim-type nodes"
    for t in targets:
        assert LAYOUT.type_of(overlay.ids[t]) == int(NodeType.A)
    # Everyone else keeps the normal (same-type) knowledge.
    other = (imp_idx + 1) % len(overlay)
    assert knowledge.targets_of(other) == base.targets_of(other)


def make_worm(overlay, seed_idx, victim=NodeType.A):
    sim = Simulator()
    vulnerable = [LAYOUT.type_of(i) == int(victim) for i in overlay.ids]
    vulnerable[seed_idx] = False
    worm = ColumnarWormSimulation(
        sim, len(overlay), vulnerable, verme_knowledge(overlay, 5, 5)
    )
    worm.seed(seed_idx)
    return sim, worm, sum(vulnerable)


def test_fast_harvester_feeds_victim_sections():
    imp_id = LAYOUT.random_id(random.Random(11), NodeType.B)
    overlay = verme_overlay(extra=NodeInfo(imp_id, NodeAddress(10_001)))
    imp_idx = overlay.index_of(imp_id)
    sim, worm, vuln_total = make_worm(overlay, imp_idx)
    harvester = FastVerDiHarvester(
        sim, worm, overlay, imp_idx, NodeType.A, random.Random(1),
        rate_per_s=10.0, replicas_per_lookup=1, vulnerable_total=vuln_total,
    )
    harvester.start()
    sim.run(until=30.0)
    harvester.stop()
    # The harvester stops once everything vulnerable is infected, so
    # the exact count depends on coverage speed; it must have run and
    # the worm must have escaped the impersonator's own fingers.
    assert harvester.harvest_events > 20
    assert worm.infected_count > 50


def test_fast_harvester_stops_when_everything_infected():
    imp_id = LAYOUT.random_id(random.Random(13), NodeType.B)
    overlay = verme_overlay(n=60, extra=NodeInfo(imp_id, NodeAddress(10_002)))
    imp_idx = overlay.index_of(imp_id)
    sim, worm, vuln_total = make_worm(overlay, imp_idx)
    harvester = FastVerDiHarvester(
        sim, worm, overlay, imp_idx, NodeType.A, random.Random(2),
        rate_per_s=50.0, replicas_per_lookup=3, vulnerable_total=vuln_total,
    )
    harvester.start()
    sim.run(until=600.0)
    events_at_completion = harvester.harvest_events
    sim.run(until=1200.0)
    assert harvester.harvest_events == events_at_completion
    assert worm.infected_count >= vuln_total


def test_harvester_positions_always_victim_type():
    imp_id = LAYOUT.random_id(random.Random(17), NodeType.B)
    overlay = verme_overlay(extra=NodeInfo(imp_id, NodeAddress(10_003)))
    imp_idx = overlay.index_of(imp_id)
    sim, worm, vuln_total = make_worm(overlay, imp_idx)
    h = FastVerDiHarvester(
        sim, worm, overlay, imp_idx, NodeType.A, random.Random(3),
        rate_per_s=1.0, replicas_per_lookup=2, vulnerable_total=vuln_total,
    )
    for _ in range(200):
        assert LAYOUT.type_of(h._victim_position()) == int(NodeType.A)


def test_compromise_expected_rate():
    assert CompromiseVerDiHarvester.expected_rate(1.0, 50_000, 50_000) == pytest.approx(1.0)
    assert CompromiseVerDiHarvester.expected_rate(2.0, 100, 400) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        CompromiseVerDiHarvester.expected_rate(1.0, 10, 0)


def test_compromise_harvester_uses_initiator_pool():
    imp_id = LAYOUT.random_id(random.Random(19), NodeType.B)
    overlay = verme_overlay(extra=NodeInfo(imp_id, NodeAddress(10_004)))
    imp_idx = overlay.index_of(imp_id)
    sim, worm, vuln_total = make_worm(overlay, imp_idx)
    pool = [i for i in range(len(overlay)) if LAYOUT.type_of(overlay.ids[i]) == 0][:5]
    h = CompromiseVerDiHarvester(
        sim, worm, overlay, imp_idx, NodeType.A, random.Random(4),
        rate_per_s=5.0, replicas_per_lookup=1, vulnerable_total=vuln_total,
        initiator_pool=pool,
    )
    extras = {h._extra_targets()[0] for _ in range(100)}
    assert extras <= set(pool)


def test_harvester_rejects_bad_rate():
    imp_id = LAYOUT.random_id(random.Random(23), NodeType.B)
    overlay = verme_overlay(n=40, extra=NodeInfo(imp_id, NodeAddress(10_005)))
    imp_idx = overlay.index_of(imp_id)
    sim, worm, vuln_total = make_worm(overlay, imp_idx)
    with pytest.raises(ValueError):
        FastVerDiHarvester(
            sim, worm, overlay, imp_idx, NodeType.A, random.Random(5),
            rate_per_s=0.0, replicas_per_lookup=1, vulnerable_total=vuln_total,
        )


# -- reference equality of the extraction paths ---------------------------------
#
# The oracle is the NodeInfo path: ``routing_entries`` (successors,
# predecessors, ``finger_table`` through ``owner`` / ``finger_target`` /
# ``_finger_entry_allowed``) mapped back to indices.  The integer scalar
# path (``targets_of``) and every row of the vectorised batch
# (``targets_of_many``) must equal it exactly, order included.

OVERLAY_CLASSES = (StaticOverlay, VermeStaticOverlay, NaiveFingerVermeOverlay)


def _ring(cls, bits, sections, type_bits, n, seed):
    layout = VermeIdLayout.for_sections(IdSpace(bits), sections, type_bits)
    rng = random.Random(seed)
    ids = set()
    while len(ids) < n:
        ids.add(layout.random_id(rng, rng.randrange(layout.num_types)))
    if cls is StaticOverlay:
        return StaticOverlay.from_ids(layout.space, list(ids)), layout
    return cls.from_ids(layout, list(ids)), layout


def _oracle(overlay, index, ns, np_, want_type=None, layout=None):
    rows = [
        overlay.index_of(info.node_id)
        for info in overlay.routing_entries(index, ns, np_)
    ]
    if want_type is None:
        return rows
    return [i for i in rows if layout.type_of(overlay.ids[i]) == want_type]


def _split(flat, counts):
    rows, offset = [], 0
    for count in counts:
        rows.append([int(i) for i in flat[offset : offset + count]])
        offset += int(count)
    assert offset == len(flat)
    return rows


def _assert_matches(knowledge, batch, expected_of):
    expected = {i: expected_of(i) for i in set(batch)}
    for i in set(batch):
        assert knowledge.targets_of(i) == expected[i]
    rows = _split(*knowledge.targets_of_many(batch))
    assert rows == [expected[i] for i in batch]


def _rule_firings(overlay):
    """How often the corner rule and the containment refusal decide a
    maintained finger anywhere on the ring (scalar rules)."""
    corner = refused = 0
    for index, node_id in enumerate(overlay.ids):
        for k in overlay.maintained_finger_indices(index):
            decision = overlay.owner(overlay.finger_target(node_id, k))
            corner += decision.via_predecessor_rule
            owner_id = overlay.ids[decision.index]
            refused += owner_id != node_id and not overlay._finger_entry_allowed(
                node_id, owner_id
            )
    return corner, refused


ring_shapes = st.tuples(
    st.sampled_from(OVERLAY_CLASSES),
    st.sampled_from([(16, 8), (32, 16), (32, 128), (64, 4096), (20, 64)]),
    st.integers(1, 2),  # type bits
    st.integers(1, 90),  # nodes
    st.integers(0, 2**32),  # seed
)


@settings(max_examples=60, deadline=None)
@given(
    shape=ring_shapes,
    ns=st.integers(0, 12),
    np_=st.integers(0, 12),
    batch_size=st.sampled_from([1, 2, 31, 32]),
)
def test_knowledge_paths_equal_routing_entries(shape, ns, np_, batch_size):
    cls, (bits, sections), type_bits, n, seed = shape
    overlay, layout = _ring(cls, bits, sections, type_bits, n, seed)
    batch = [random.Random(seed + 1).randrange(n) for _ in range(batch_size)]
    unfiltered = RoutingKnowledge(overlay, ns, np_)
    _assert_matches(unfiltered, batch, lambda i: _oracle(overlay, i, ns, np_))
    filtered = RoutingKnowledge(overlay, ns, np_, same_type_only=True, layout=layout)
    _assert_matches(
        filtered,
        batch,
        lambda i: _oracle(
            overlay, i, ns, np_, layout.type_of(overlay.ids[i]), layout
        ),
    )


@settings(max_examples=40, deadline=None)
@given(
    shape=ring_shapes.filter(lambda s: s[0] is not StaticOverlay),
    victim=st.sampled_from(list(NodeType)),
    filtered_base=st.booleans(),
    batch_size=st.sampled_from([1, 2, 31, 32]),
)
def test_impersonator_batch_equals_routing_entries(
    shape, victim, filtered_base, batch_size
):
    cls, (bits, sections), _, n, seed = shape
    overlay, layout = _ring(cls, bits, sections, 1, n, seed)
    rng = random.Random(seed + 2)
    imp = rng.randrange(n)
    batch = [imp] + [rng.randrange(n) for _ in range(batch_size - 1)]
    rng.shuffle(batch)
    base = RoutingKnowledge(
        overlay, 10, 10, same_type_only=filtered_base, layout=layout
    )
    knowledge = ImpersonatorKnowledge(base, overlay, imp, victim)

    def expected(i):
        if i == imp:
            return _oracle(overlay, i, 10, 10, int(victim), layout)
        if filtered_base:
            return _oracle(
                overlay, i, 10, 10, layout.type_of(overlay.ids[i]), layout
            )
        return _oracle(overlay, i, 10, 10)

    _assert_matches(knowledge, batch, expected)


@pytest.mark.parametrize("cls", [VermeStaticOverlay, NaiveFingerVermeOverlay])
def test_sparse_ring_fires_corner_rule_and_containment_refusal(cls):
    """20 nodes over 128 sections: most sections are empty, so owners
    come from the corner rule and (Verme only) displaced fingers land on
    same-type foreign owners that must be refused."""
    overlay, layout = _ring(cls, 32, 128, 1, 20, 4)
    corner, refused = _rule_firings(overlay)
    assert corner > 0
    if cls is VermeStaticOverlay:
        assert refused > 0
    else:
        assert refused == 0  # the ablation stores every owner
    batch = list(range(len(overlay)))
    imp = 7
    knowledge = ImpersonatorKnowledge(
        verme_knowledge(overlay, 4, 4), overlay, imp, NodeType.A
    )
    _assert_matches(
        knowledge,
        batch,
        lambda i: _oracle(
            overlay,
            i,
            4,
            4,
            int(NodeType.A) if i == imp else layout.type_of(overlay.ids[i]),
            layout,
        ),
    )


@pytest.mark.parametrize("cls", OVERLAY_CLASSES)
def test_batches_longer_than_one_chunk(cls):
    overlay, layout = _ring(cls, 64, 256, 1, 150, 9)
    batch = [i % len(overlay) for i in range(_BATCH_CHUNK + 33)]
    knowledge = RoutingKnowledge(overlay, 10, 10, same_type_only=True, layout=layout)
    expected = {
        i: _oracle(overlay, i, 10, 10, layout.type_of(overlay.ids[i]), layout)
        for i in range(len(overlay))
    }
    rows = _split(*knowledge.targets_of_many(batch))
    assert rows == [expected[i] for i in batch]
