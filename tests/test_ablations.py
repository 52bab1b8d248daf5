"""Tests for the ablation drivers, the load analysis and the
containment audit."""

import random

import pytest

from repro.analysis.load import sample_ownership
from repro.chord.state import NodeInfo
from repro.experiments.ablations import (
    run_load_comparison,
    run_multitype_containment,
    run_naive_finger_ablation,
    run_replication_availability,
)
from repro.ids import IdSpace, VermeIdLayout
from repro.invariants import RingSnapshot, check_containment, containment_violations
from repro.net import NodeAddress
from repro.overlay import NaiveFingerVermeOverlay, StaticOverlay
from repro.verme import max_safe_neighbor_list, min_safe_sections
from repro.worm import ENGINES, WormScenarioConfig

from conftest import build_verme_ring

CFG = WormScenarioConfig(num_nodes=1200, num_sections=64, seed=11)


def test_naive_fingers_break_containment():
    res = run_naive_finger_ablation(CFG, until=150.0)
    assert res.infected_with_displacement < 0.1 * res.vulnerable
    assert res.infected_naive_fingers > 0.8 * res.vulnerable


def test_naive_overlay_finger_targets_are_plain_chord():
    space = IdSpace(32)
    layout = VermeIdLayout.for_sections(space, 16)
    rng = random.Random(1)
    used = set()
    infos = []
    for i in range(64):
        nid = layout.random_id(rng, i % 2)
        while nid in used:
            nid = layout.random_id(rng, i % 2)
        used.add(nid)
        infos.append(NodeInfo(nid, NodeAddress(i)))
    naive = NaiveFingerVermeOverlay(layout, infos)
    node_id = naive.ids[0]
    assert naive.finger_target(node_id, 5) == space.power_of_two_target(node_id, 5)


def test_two_section_replication_survives_outbreak():
    res = run_replication_availability(CFG, per_group=3, samples=500)
    assert res.survivors_two_sections > 0.99
    assert res.survivors_single_section < 0.7


def test_load_comparison_sane():
    res = run_load_comparison(num_nodes=600, num_sections=32, samples=10_000)
    assert 0.0 < res.chord.gini < 0.8
    assert 0.0 < res.verme.gini < 0.8
    assert 0.0 < res.verme.predecessor_rule_fraction < 0.5
    assert res.chord.predecessor_rule_fraction == 0.0
    assert res.chord.samples == res.verme.samples == 10_000


def test_load_report_shares_sum_to_one():
    space = IdSpace(24)
    rng = random.Random(2)
    ids = sorted(rng.sample(range(space.size), 50))
    overlay = StaticOverlay(space, [NodeInfo(i, NodeAddress(n)) for n, i in enumerate(ids)])
    report = sample_ownership(overlay, 5000, random.Random(3))
    assert report.num_nodes == 50
    assert report.mean_share == pytest.approx(1 / 50)
    assert report.max_share <= 1.0
    assert report.top_decile_share <= 1.0


@pytest.mark.parametrize("type_bits", [1, 2, 3])
def test_multitype_containment(type_bits):
    res = run_multitype_containment(
        num_nodes=1024, num_sections=128, type_bits=type_bits, until=150.0
    )
    assert res.num_types == 2**type_bits
    assert res.containment_fraction < 0.15


def test_multitype_vulnerable_population_shrinks():
    r2 = run_multitype_containment(num_nodes=1024, num_sections=128, type_bits=1, until=10.0)
    r4 = run_multitype_containment(num_nodes=1024, num_sections=128, type_bits=2, until=10.0)
    assert r4.vulnerable < r2.vulnerable


def test_worm_ablations_match_the_legacy_reference_engine(monkeypatch):
    """Both worm ablations build their worm through ``worm.ENGINES``
    (columnar by default) and report what the legacy engine reports."""

    def run_all():
        return (
            run_naive_finger_ablation(CFG, until=150.0),
            [
                run_multitype_containment(
                    num_nodes=1024, num_sections=128, type_bits=bits, until=150.0
                )
                for bits in (1, 2, 3)
            ],
        )

    columnar = run_all()
    built = []

    class Legacy(ENGINES["legacy"]):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setitem(ENGINES, "columnar", Legacy)
    assert run_all() == columnar
    assert len(built) == 5  # two naive-finger overlays, three type counts


# -- audit helpers ----------------------------------------------------------------------


def test_audit_clean_on_well_sized_ring():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=3)
    assert check_containment(RingSnapshot.capture(ring.nodes)) == []


def test_audit_detects_undersized_sections():
    # 64 nodes, 16 sections -> ~4 per section, lists of 6 must spill.
    ring = build_verme_ring(
        num_nodes=64, num_sections=16, seed=5, num_successors=6, num_predecessors=6
    )
    violations = check_containment(RingSnapshot.capture(ring.nodes))
    assert violations, "undersized sections must be flagged"
    v = violations[0]
    assert "same-type" in str(v)


def test_audit_node_state_tables_attributed():
    space = IdSpace(16)
    layout = VermeIdLayout(space, section_bits=5)
    node = layout.make_id(0, 0, 1)
    foreign_same_type = layout.make_id(1, 0, 1)  # same type, other section
    out = containment_violations(layout, node, [foreign_same_type], [], [])
    assert len(out) == 1
    assert out[0].table == "successors"
    # Opposite type never violates.
    opposite = layout.make_id(0, 1, 1)
    assert containment_violations(layout, node, [opposite], [], []) == []
    # Same section never violates.
    sibling = layout.make_id(0, 0, 2)
    assert containment_violations(layout, node, [sibling], [], []) == []


def test_sizing_helpers():
    assert max_safe_neighbor_list(2400, 128) == 9  # 18.75 avg per section
    assert min_safe_sections(2400, 6) >= 64
    # Round-trips: a list sized by the helper passes its own rule.
    sections = min_safe_sections(2400, 6)
    assert max_safe_neighbor_list(2400, sections) >= 6
    with pytest.raises(ValueError):
        max_safe_neighbor_list(0, 16)
    with pytest.raises(ValueError):
        min_safe_sections(100, 0)
