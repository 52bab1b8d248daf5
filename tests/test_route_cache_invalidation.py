"""The routing-candidate cache must track its source-table versions.

``ChordNode._route_next`` hands :func:`repro.chord.rules.route_next` a
cached candidate list (fingers + successor entries sorted farthest-first)
keyed by the two tables' ``version`` counters.  These tests pin the invalidation contract: any
content change to either table bumps its version and forces a rebuild
on the next routing decision, a no-op merge keeps the cache (and its
version key) intact, and after real churn every live node's cache is
coherent with whatever its tables now hold.
"""

import random

from repro.analysis import LookupStats
from repro.chord import ChurnDriver, LookupStyle, LookupWorkload
from repro.chord.state import NodeInfo
from repro.net import NodeAddress

from conftest import build_chord_ring
from test_churn_integration import churn_setup


def _warm(node, key=12345):
    """One routing decision, which populates the candidate cache."""
    node._route_next(key, frozenset())
    assert node._cand_fver == node.fingers.version
    assert node._cand_sver == node.successors.version


def _expected_candidates(node):
    """The candidate list recomputed from the live tables, written from
    the definition rather than imported from ``repro.chord.rules``
    (fingers first, stable sort)."""
    mask = node._mask
    cands = []
    for cand in node.fingers.values():
        dc = (cand.node_id - node.node_id) & mask
        if dc:
            cands.append((-dc, cand))
    for cand in node.successors._entries:
        dc = (cand.node_id - node.node_id) & mask
        if dc:
            cands.append((-dc, cand))
    cands.sort(key=lambda c: c[0])
    return [c[0] for c in cands], [c[1] for c in cands]


def test_finger_set_bumps_version_and_rebuilds():
    ring = build_chord_ring(num_nodes=32, seed=7)
    node = ring.nodes[0]
    _warm(node)
    fver = node.fingers.version
    # A brand-new finger entry (fresh id halfway around the ring).
    new_id = (node.node_id + (1 << 31)) & node._mask
    info = NodeInfo(new_id, NodeAddress(9999, 0))
    node.fingers.set(40, info)
    assert node.fingers.version == fver + 1
    _warm(node)
    assert info in node._cand_infos


def test_finger_removal_invalidates():
    ring = build_chord_ring(num_nodes=32, seed=7)
    node = ring.nodes[0]
    _warm(node)
    victim = next(iter(node.fingers.values()))
    fver = node.fingers.version
    node.fingers.remove_address(victim.address)
    assert node.fingers.version > fver
    _warm(node)
    # The victim may legitimately survive via the successor list; the
    # rebuilt cache must simply match the post-removal tables.
    keys, infos = _expected_candidates(node)
    assert node._cand_keys == keys
    assert node._cand_infos == infos


def test_successor_merge_bumps_version_and_rebuilds():
    ring = build_chord_ring(num_nodes=32, seed=7)
    node = ring.nodes[0]
    _warm(node)
    sver = node.successors.version
    new_id = (node.node_id + 1) & node._mask
    info = NodeInfo(new_id, NodeAddress(9998, 0))
    node.successors.merge([info])
    assert node.successors.version == sver + 1
    _warm(node)
    assert info in node._cand_infos


def test_noop_merge_keeps_cache():
    """Steady-state stabilization re-merges the same entries; the
    version must not move, so the cached lists survive untouched."""
    ring = build_chord_ring(num_nodes=32, seed=7)
    node = ring.nodes[0]
    _warm(node)
    keys_before = node._cand_keys
    node.successors.merge(node.successors.entries)
    assert node.successors.version == node._cand_sver
    node._route_next(54321, frozenset())
    assert node._cand_keys is keys_before  # same object: no rebuild


def test_stale_cache_is_never_consulted_after_version_bump():
    """The decision after a table change must reflect the new tables:
    insert a finger that is the unique best hop for a key and check the
    very next decision routes through it."""
    ring = build_chord_ring(num_nodes=32, seed=7)
    node = ring.nodes[0]
    mask = node._mask
    key = (node.node_id + (1 << 30)) & mask
    _warm(node, key)
    before = node._route_next(key, frozenset())
    # Plant an entry immediately counter-clockwise of the key: the
    # closest-preceding rule must now pick it.
    best_id = (key - 1) & mask
    info = NodeInfo(best_id, NodeAddress(9997, 0))
    node.fingers.set(41, info)
    done, _owner_self, next_hop = node._route_next(key, frozenset())
    assert not done
    assert next_hop == info
    assert before[0] or before[2] != info


def test_cache_coherent_after_churn():
    """After a churned run (joins, deaths, finger repair), every live
    node's cached candidate list matches one recomputed from its
    current tables."""
    ring, rngs = churn_setup(verme=False)
    churn = ChurnDriver(
        ring.sim, ring.population, ring.factory, rngs.stream("churn"),
        mean_lifetime_s=120.0, rejoin_delay_s=1.0,
    )
    churn.start()
    stats = LookupStats()
    workload = LookupWorkload(
        ring.sim, ring.population, rngs.stream("load"),
        style=LookupStyle.RECURSIVE, mean_interval_s=5.0, stats=stats,
    )
    workload.start()
    ring.sim.run(until=300.0)
    assert churn.deaths > 5, "churn must actually have happened"
    rng = random.Random(3)
    checked = 0
    for node in ring.population:
        # Any decision refreshes the cache for this node's current table
        # versions.
        node._route_next(rng.getrandbits(32), frozenset())
        assert node._cand_fver == node.fingers.version
        assert node._cand_sver == node.successors.version
        keys, infos = _expected_candidates(node)
        assert node._cand_keys == keys
        assert node._cand_infos == infos
        checked += 1
    assert checked > 10
