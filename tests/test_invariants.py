"""The invariant predicate library, checker, and mutation detection.

The mutation tests are the point: each one hand-corrupts real overlay
state (reversed successor list, injected cross-section finger, node
orphaned from the cycle, ...) and asserts the matching predicate fires
with the right structured record — no invariant is vacuously true.
"""

import json
import tracemalloc

import pytest

import repro.invariants as inv
from repro.chord.ring import ChurnDriver, Population
from repro.chord.state import NodeInfo
from repro.invariants import (
    InvariantChecker,
    InvariantViolationError,
    NodeRecord,
    RingSnapshot,
)
from repro.net import NodeAddress
from repro.obs import OBS, disable as obs_disable, enabled as obs_enabled
from repro.invariants import ContainmentViolation, containment_violations

from conftest import build_chord_ring, build_verme_ring, population_of


def snapshot_of(ring, now=0.0):
    return RingSnapshot.capture(ring.nodes, now)


def converged_chord(num_nodes=24, seed=3):
    ring = build_chord_ring(num_nodes=num_nodes, seed=seed)
    ring.sim.run(until=200.0)
    return ring


def converged_verme(num_nodes=96, num_sections=8, seed=3):
    ring = build_verme_ring(
        num_nodes=num_nodes, num_sections=num_sections, seed=seed
    )
    ring.sim.run(until=200.0)
    return ring


def by_predicate(violations, name):
    return [v for v in violations if v.predicate == name]


# -- converged rings are clean ------------------------------------------------


def test_converged_chord_ring_has_no_violations():
    ring = converged_chord()
    found = inv.evaluate(snapshot_of(ring, 200.0), final=True)
    assert found == []


def test_converged_verme_ring_has_no_violations():
    """96 nodes / 8 sections / 4-entry lists is safely sized, so even
    the conditional containment predicate stays silent."""
    ring = converged_verme()
    found = inv.evaluate(snapshot_of(ring, 200.0), final=True)
    assert found == []


def test_snapshot_captures_only_alive_nodes():
    ring = converged_chord()
    victim = ring.nodes[0]
    victim.crash()
    snap = snapshot_of(ring)
    assert victim.node_id not in snap.members
    assert len(snap) == len(ring.nodes) - 1


def test_routing_state_matches_tables():
    ring = converged_chord(num_nodes=8)
    node = ring.nodes[0]
    succs, preds, fingers = node.routing_state()
    assert list(succs) == [e.node_id for e in node.successors]
    assert list(preds) == [e.node_id for e in node.predecessors]
    for k, target, entry in fingers:
        assert target == node.finger_target(k)
        assert node.fingers.get(k).node_id == entry


# -- mutation tests: every predicate detects its seeded corruption ------------


def test_reversed_successor_list_detected():
    ring = converged_chord()
    node = ring.nodes[5]
    node.successors._entries = list(reversed(node.successors._entries))
    found = by_predicate(
        inv.evaluate(snapshot_of(ring)), "successor-list"
    )
    assert found and all(v.severity == "error" for v in found)
    assert any(v.node_id == node.node_id for v in found)
    assert any("out of ring order" in v.detail for v in found)


def test_duplicate_successor_entry_detected():
    ring = converged_chord()
    node = ring.nodes[2]
    first = node.successors._entries[0]
    node.successors._entries = [first, first]
    found = by_predicate(
        inv.evaluate(snapshot_of(ring)), "successor-list"
    )
    assert any(
        v.node_id == node.node_id and "duplicate" in v.detail for v in found
    )


def test_self_entry_in_predecessor_list_detected():
    ring = converged_chord()
    node = ring.nodes[1]
    node.predecessors._entries = [node.info] + node.predecessors._entries
    found = by_predicate(
        inv.evaluate(snapshot_of(ring)), "predecessor-list"
    )
    assert any(
        v.node_id == node.node_id and "itself" in v.detail for v in found
    )


def test_cross_section_finger_detected_as_hard_error():
    """Inject exactly the link VermeNode._finger_fixed refuses to store:
    a same-type entry from a foreign section."""
    ring = converged_verme()
    node = ring.nodes[0]
    foreign = next(
        n for n in ring.nodes
        if ring.layout.same_type(n.node_id, node.node_id)
        and not ring.layout.same_section(n.node_id, node.node_id)
    )
    node.fingers.set(3, foreign.info)
    found = by_predicate(
        inv.evaluate(snapshot_of(ring)), "containment"
    )
    assert len(found) == 1
    violation = found[0]
    assert violation.severity == "error"
    assert violation.node_id == node.node_id
    assert violation.entries == (foreign.node_id,)
    assert "fingers" in violation.detail


def test_orphaned_node_detected_as_stranded():
    ring = converged_chord()
    node = ring.nodes[7]
    ghost = NodeInfo((node.node_id + 1) % (1 << 32), NodeAddress(999))
    node.successors._entries = [ghost]
    found = inv.evaluate(snapshot_of(ring), final=True)
    stranded = by_predicate(found, "ring-stranded")
    assert len(stranded) == 1
    assert stranded[0].node_id == node.node_id
    assert stranded[0].severity == "error"
    assert ghost.node_id in stranded[0].entries


def test_stranded_is_transient_on_non_final_samples():
    ring = converged_chord()
    ring.nodes[7].successors._entries = [
        NodeInfo(12345, NodeAddress(999))
    ]
    found = by_predicate(
        inv.evaluate(snapshot_of(ring)), "ring-stranded"
    )
    assert found and found[0].severity == "transient"


def test_chord_finger_before_target_detected():
    # Node 0's finger 10 targets id 1024 but stores id 5 — a stale
    # entry that wrapped back before its target.
    records = [
        NodeRecord(0, (5,), (), ((10, 1024, 5),)),
        NodeRecord(5, (0,), (), ()),
    ]
    snap = RingSnapshot(32, 0.0, records)
    found = by_predicate(inv.check_finger_ranges(snap), "finger-range")
    assert len(found) == 1
    assert found[0].severity == "transient"
    assert "finger 10" in found[0].detail


def test_finger_self_entry_is_hard_error():
    records = [
        NodeRecord(0, (5,), (), ((3, 8, 0),)),
        NodeRecord(5, (0,), (), ()),
    ]
    snap = RingSnapshot(32, 0.0, records)
    found = by_predicate(inv.check_finger_ranges(snap), "finger-range")
    assert len(found) == 1
    assert found[0].severity == "error"
    assert "itself" in found[0].detail


def test_finger_range_skipped_for_verme():
    """Verme's corner rule legalises entries before the displaced
    target; the range predicate must not apply."""
    ring = converged_verme()
    snap = snapshot_of(ring)
    assert snap.layout is not None
    assert inv.check_finger_ranges(snap) == []


def test_ring_split_detected_on_synthetic_snapshot():
    # Two disjoint 2-cycles: 10 <-> 20 and 1000 <-> 2000.
    records = [
        NodeRecord(10, (20,), (), ()),
        NodeRecord(20, (10,), (), ()),
        NodeRecord(1000, (2000,), (), ()),
        NodeRecord(2000, (1000,), (), ()),
    ]
    snap = RingSnapshot(32, 0.0, records)
    found = by_predicate(inv.check_ring(snap, "error"), "ring-split")
    assert len(found) == 1
    assert "2 disjoint successor cycles" in found[0].detail
    assert found[0].entries == (10, 1000)


def test_ring_order_violation_detected_on_synthetic_snapshot():
    # 10 -> 30 -> 20 -> 10 wraps the id space twice.
    records = [
        NodeRecord(10, (30,), (), ()),
        NodeRecord(30, (20,), (), ()),
        NodeRecord(20, (10,), (), ()),
    ]
    snap = RingSnapshot(32, 0.0, records)
    found = by_predicate(inv.check_ring(snap, "error"), "ring-order")
    assert len(found) == 1
    assert "wraps the id space 2 times" in found[0].detail


def test_pred_coherence_violation_detected():
    ring = converged_chord()
    nodes = sorted(ring.nodes, key=lambda n: n.node_id)
    succ = nodes[1]  # nodes[0]'s ring successor
    stranger = nodes[10]
    succ.predecessors._entries = [stranger.info]
    found = by_predicate(
        inv.evaluate(snapshot_of(ring), final=True), "pred-coherence"
    )
    assert any(
        v.node_id == nodes[0].node_id and v.severity == "transient"
        for v in found
    )


# -- conditional containment (sizing assumption) ------------------------------


def test_undersized_verme_ring_reports_conditional_not_error():
    """8-entry lists over ~8-node sections violate the §4.3 sizing rule
    by construction: the spills must be recorded but never hard."""
    ring = build_verme_ring(
        num_nodes=64, num_sections=8, num_successors=8, num_predecessors=8,
        seed=2,
    )
    found = by_predicate(
        inv.evaluate(snapshot_of(ring)), "containment"
    )
    assert found  # the sizing violation is real and visible
    assert all(v.severity == "conditional" for v in found)


# -- the containment predicate's records ---------------------------------------


def test_audit_node_state_enriched_context():
    ring = converged_verme()
    layout = ring.layout
    node = ring.nodes[0]
    foreign = next(
        n for n in ring.nodes
        if layout.same_type(n.node_id, node.node_id)
        and not layout.same_section(n.node_id, node.node_id)
    )
    out = containment_violations(
        layout, node.node_id, [foreign.node_id], [], []
    )
    assert len(out) == 1
    violation = out[0]
    assert violation.table == "successors"
    assert violation.node_section == layout.section_index(node.node_id)
    assert violation.entry_section == layout.section_index(foreign.node_id)
    assert violation.node_type == layout.type_of(node.node_id)
    assert "section" in str(violation)


def test_containment_violation_backward_compatible_defaults():
    old_style = ContainmentViolation(1, 2, "fingers")
    assert old_style.node_section == -1
    assert "section" not in str(old_style).split("via")[1]


# -- checker ------------------------------------------------------------------


def test_checker_rejects_unknown_mode_and_bad_interval():
    with pytest.raises(ValueError):
        InvariantChecker(mode="paranoid")
    with pytest.raises(ValueError):
        InvariantChecker(interval_s=0.0)


def test_checker_accumulates_and_reports():
    ring = converged_chord()
    ring.nodes[5].successors._entries = list(
        reversed(ring.nodes[5].successors._entries)
    )
    checker = InvariantChecker(mode="strict", seed=42)
    found = checker.check_population(ring.nodes, 7.5, cell="unit")
    assert found and checker.checks == 1
    assert checker.errors
    assert checker.counts()["error"] == len(checker.errors)
    report = checker.report()
    json.dumps(report)  # must be serialisable
    assert report["schema"] == "repro.invariants/1"
    assert report["seed"] == 42
    record = report["violations"][0]
    assert record["cell"] == "unit"
    assert record["time_s"] == 7.5
    with pytest.raises(InvariantViolationError):
        checker.raise_if_errors("unit test")


def test_checker_watch_samples_periodically_edges_and_final():
    from repro.faults import FaultPlan, Partition

    ring = build_chord_ring(num_nodes=16, seed=1)
    population = population_of(ring.nodes)
    plan = FaultPlan().add_partition(
        Partition.of([range(4), range(4, 16)], 10.0, 30.0)
    )
    checker = InvariantChecker()
    checker.watch(
        ring.sim, population, fault_plan=plan, until=100.0, interval_s=20.0,
        cell="watch-test",
    )
    ring.sim.run(until=100.0)
    # 5 periodic (t=20..100) + 2 fault edges (11, 31) + 1 final.
    assert checker.checks == 8
    assert all(v.cell == "watch-test" for v in checker.violations)


def test_note_membership_rate_limited():
    ring = build_chord_ring(num_nodes=8, seed=1)
    population = population_of(ring.nodes)
    checker = InvariantChecker()
    checker.watch(ring.sim, population, until=1000.0, interval_s=100.0)
    checker.note_membership(ring.sim)  # first: samples immediately
    checker.note_membership(ring.sim)  # second: inside the gap, skipped
    assert checker.churn_samples == 1
    assert checker.checks == 1
    foreign_sim_token = object()
    checker.note_membership(foreign_sim_token)  # unknown sim: ignored
    assert checker.checks == 1


def test_churn_driver_triggers_checker_samples():
    ring = build_chord_ring(num_nodes=16, seed=4)
    population = population_of(ring.nodes)
    import random as random_mod

    class Factory:
        def create(self, host_slot, incarnation):  # pragma: no cover
            raise AssertionError("no respawn inside this window")

    driver = ChurnDriver(
        ring.sim, population, Factory(), random_mod.Random(0),
        mean_lifetime_s=40.0, rejoin_delay_s=1e6,
    )
    checker = InvariantChecker()
    OBS.invariants = checker
    try:
        checker.watch(ring.sim, population, until=60.0, interval_s=1000.0)
        driver.start()
        ring.sim.run(until=60.0)
    finally:
        OBS.invariants = None
    assert driver.deaths > 0
    assert checker.churn_samples >= 1


# -- the obs switch -----------------------------------------------------------


def test_obs_invariants_slot_default_off_and_cleared_by_disable():
    assert OBS.invariants is None
    assert not obs_enabled()
    OBS.invariants = InvariantChecker()
    assert obs_enabled()
    obs_disable()
    assert OBS.invariants is None


def _tiny_churn_run():
    ring = build_chord_ring(num_nodes=12, seed=6)
    population = population_of(ring.nodes)
    import random as random_mod

    from repro.experiments.builders import ChordNodeFactory
    from repro.sim import RngRegistry

    factory = ChordNodeFactory(
        ring.sim, ring.network, ring.config, RngRegistry(5)
    )
    driver = ChurnDriver(
        ring.sim, population, factory, random_mod.Random(1),
        mean_lifetime_s=30.0,
    )
    driver.start()
    ring.sim.run(until=120.0)
    assert driver.deaths > 0


def test_disabled_invariants_allocate_nothing():
    """With ``OBS.invariants is None`` the churn/outage hook sites cost
    one attribute load + ``is not None`` — no invariants-package code
    runs and no allocation is attributed to it (same tracemalloc pin as
    the obs instruments)."""
    inv_dir = str(__import__("pathlib").Path(inv.__file__).parent)
    assert OBS.invariants is None
    _tiny_churn_run()  # warm caches outside the audit window
    tracemalloc.start()
    try:
        _tiny_churn_run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    allocations = [
        trace
        for trace in snapshot.traces
        if any(
            frame.filename.startswith(inv_dir) for frame in trace.traceback
        )
    ]
    assert allocations == []
    assert OBS.invariants is None


# -- population edge cases ----------------------------------------------------


def test_empty_and_singleton_populations_are_clean():
    empty = RingSnapshot.capture([], 0.0)
    assert inv.evaluate(empty, final=True) == []
    ring = build_chord_ring(num_nodes=4, seed=1)
    lone = [ring.nodes[0]]
    snap = RingSnapshot.capture(lone, 0.0)
    # A lone node has successor entries pointing at dead peers; ring
    # checks are skipped below two members.
    assert by_predicate(inv.evaluate(snap, final=True), "ring-split") == []


def test_violation_str_and_record_roundtrip():
    violation = inv.Violation(
        "ring-split", "error", 12.0, 0xAB, "two cycles", entries=(1, 2),
        cell="c", seed=3,
    )
    assert "ring-split" in str(violation)
    record = violation.to_record()
    assert record["node_id"] == "0xab"
    assert record["entries"] == ["0x1", "0x2"]


def test_population_helper_reusable():
    ring = build_chord_ring(num_nodes=4, seed=1)
    population = population_of(ring.nodes)
    assert isinstance(population, Population)
    assert len(population) == 4
