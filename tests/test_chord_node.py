"""Behavioural tests for the Chord protocol node."""

import random

import pytest

from repro.chord import LookupStyle, OverlayConfig
from repro.chord.node import ChordNode
from repro.ids import IdSpace
from repro.net import ConstantLatency, Network, NodeAddress
from repro.sim import Simulator

from conftest import build_chord_ring, run_lookup


@pytest.mark.parametrize("style", list(LookupStyle))
def test_lookup_finds_correct_owner_all_styles(style):
    ring = build_chord_ring(num_nodes=32, seed=11)
    rng = random.Random(99)
    for _ in range(20):
        key = rng.getrandbits(32)
        node = rng.choice(ring.nodes)
        expected = ring.overlay.at(ring.overlay.owner(key).index)
        res = run_lookup(ring, node, key, style=style)
        assert res.success
        assert res.entries[0].node_id == expected.node_id


def test_lookup_returns_successor_list_of_key(chord_ring):
    key = 12345
    owner_idx = chord_ring.overlay.owner(key).index
    expected = [chord_ring.overlay.at(owner_idx)] + chord_ring.overlay.successor_list(
        owner_idx, chord_ring.config.num_successors - 1
    )
    node = chord_ring.nodes[0]
    res = run_lookup(chord_ring, node, key, style=LookupStyle.RECURSIVE)
    got_ids = [e.node_id for e in res.entries]
    assert got_ids == [e.node_id for e in expected][: len(got_ids)]


def test_lookup_for_own_key_resolves_locally(chord_ring):
    node = chord_ring.nodes[0]
    pred = node.predecessor
    key = node.node_id  # owned by node itself
    res = run_lookup(chord_ring, node, key, style=LookupStyle.RECURSIVE)
    assert res.success
    assert res.entries[0].node_id == node.node_id
    assert res.hops == 0
    assert pred is not None  # sanity: ring is converged


def test_transitive_faster_than_recursive():
    """The crux of Fig. 5: the reply shortcut saves latency."""
    latencies = {}
    for style in (LookupStyle.RECURSIVE, LookupStyle.TRANSITIVE):
        ring = build_chord_ring(num_nodes=64, seed=21)
        rng = random.Random(5)
        total = 0.0
        count = 0
        for _ in range(25):
            key = rng.getrandbits(32)
            node = rng.choice(ring.nodes)
            res = run_lookup(ring, node, key, style=style)
            if res.success and res.hops >= 1:
                total += res.latency_s
                count += 1
        latencies[style] = total / count
    assert latencies[LookupStyle.TRANSITIVE] < latencies[LookupStyle.RECURSIVE]


def test_lookup_hops_logarithmic():
    ring = build_chord_ring(num_nodes=128, seed=31)
    rng = random.Random(7)
    hops = []
    for _ in range(30):
        res = run_lookup(
            ring, rng.choice(ring.nodes), rng.getrandbits(32),
            style=LookupStyle.RECURSIVE,
        )
        assert res.success
        hops.append(res.hops)
    assert sum(hops) / len(hops) <= 10  # ~0.5*log2(128) expected, generous bound


def test_single_node_ring_owns_everything():
    sim = Simulator()
    net = Network(sim, ConstantLatency(num_hosts=1))
    cfg = OverlayConfig(space=IdSpace(16), num_successors=4)
    node = ChordNode(sim, net, cfg, 100, NodeAddress(0), random.Random(0))
    node.create_ring()
    results = []
    node.lookup(5, on_done=results.append, style=LookupStyle.RECURSIVE)
    sim.run(until=10)
    assert results[0].success
    assert results[0].entries[0].node_id == 100


def test_join_through_bootstrap():
    ring = build_chord_ring(num_nodes=16, seed=41)
    sim, net, cfg = ring.sim, ring.network, ring.config
    new_id = 0xDEADBEEF
    assert all(n.node_id != new_id for n in ring.nodes)
    newcomer = ChordNode(sim, net, cfg, new_id, NodeAddress(16 - 1, 7), random.Random(1))
    net.latency_model = ConstantLatency(num_hosts=16, one_way=0.02)
    outcome = []
    newcomer.join(ring.nodes[0].address, on_done=outcome.append)
    sim.run(until=200)
    assert outcome == [True]
    assert newcomer.alive
    # The newcomer's first successor must be the true successor of its id.
    expected = ring.overlay.at(ring.overlay.successor_index(new_id))
    assert newcomer.successors.first.node_id == expected.node_id


def test_join_fails_when_bootstrap_dead():
    ring = build_chord_ring(num_nodes=8, seed=43)
    dead = ring.nodes[3]
    dead_addr = dead.address
    dead.crash()
    newcomer = ChordNode(
        ring.sim, ring.network, ring.config, 0xABCD, NodeAddress(5, 9), random.Random(2)
    )
    outcome = []
    newcomer.join(dead_addr, on_done=outcome.append)
    ring.sim.run(until=300)
    assert outcome == [False]
    assert not newcomer.alive


def test_crash_unregisters_from_network(chord_ring):
    node = chord_ring.nodes[0]
    assert chord_ring.network.is_registered(node.address)
    node.crash()
    assert not chord_ring.network.is_registered(node.address)
    assert not node.alive


def test_lookup_routes_around_dead_node():
    ring = build_chord_ring(num_nodes=48, seed=47)
    rng = random.Random(3)
    key = rng.getrandbits(32)
    owner_idx = ring.overlay.owner(key).index
    # Kill the owner's predecessor — the natural last hop.
    pred = ring.overlay.at(owner_idx - 1)
    ring.node_for(pred.node_id).crash()
    initiator = ring.node_for(ring.overlay.at(owner_idx - 20).node_id)
    res = run_lookup(ring, initiator, key, style=LookupStyle.RECURSIVE)
    assert res.success
    # With the predecessor dead, the owner (or a live neighbour) answers.
    assert res.entries


def test_stabilization_repairs_successor_after_crash():
    ring = build_chord_ring(num_nodes=24, seed=53)
    node = ring.nodes[0]
    victim_info = node.successors.first
    ring.node_for(victim_info.node_id).crash()
    ring.sim.run(until=ring.sim.now + 120.0)  # several stabilize rounds
    assert node.successors.first is not None
    assert node.successors.first.node_id != victim_info.node_id
    # The repaired successor is the live ring successor.
    live = sorted(n.node_id for n in ring.nodes if n.alive)
    import bisect

    idx = bisect.bisect_right(live, node.node_id) % len(live)
    assert node.successors.first.node_id == live[idx]


def test_notify_updates_predecessor(chord_ring):
    chord_ring.sim.run(until=120)
    for node in chord_ring.nodes:
        expected = chord_ring.overlay.at(
            chord_ring.overlay.index_of(node.node_id) - 1
        )
        assert node.predecessor is not None
        assert node.predecessor.node_id == expected.node_id


def test_fix_fingers_restores_entries():
    ring = build_chord_ring(num_nodes=32, seed=59)
    node = ring.nodes[0]
    before = dict(node.fingers.items())
    assert before, "expected maintained fingers"
    for k, _ in before.items():
        node.fingers.set(k, None)
    ring.sim.run(until=200)  # finger timer fires at 60s intervals
    after = dict(node.fingers.items())
    assert after
    overlay_fingers = ring.overlay.finger_table(ring.overlay.index_of(node.node_id))
    for k, entry in after.items():
        assert entry.node_id == overlay_fingers[k].node_id


def test_lookup_counts_tracked(chord_ring):
    node = chord_ring.nodes[0]
    run_lookup(chord_ring, node, 42, style=LookupStyle.RECURSIVE)
    assert node.lookups_started >= 1


def test_disallowed_style_raises(chord_ring):
    node = chord_ring.nodes[0]

    class Strict(ChordNode):
        allowed_styles = frozenset({LookupStyle.RECURSIVE})

    node.__class__ = Strict
    with pytest.raises(ValueError):
        node.lookup(1, on_done=lambda r: None, style=LookupStyle.TRANSITIVE)
    node.__class__ = ChordNode


def test_crash_then_rejoin_next_incarnation_registers_cleanly():
    """A crashed host's replacement must re-register on the network
    without tripping the double-registration guard, and stale messages
    to the dead incarnation must not reach it."""
    ring = build_chord_ring(num_nodes=16, seed=53)
    sim, net, cfg = ring.sim, ring.network, ring.config
    victim = ring.nodes[4]
    old_addr = victim.address
    victim.crash()
    assert not net.is_registered(old_addr)

    replacement = ChordNode(
        sim, net, cfg, 0xC0FFEE,
        old_addr.next_incarnation(), random.Random(3),
    )
    outcome = []
    replacement.join(ring.nodes[0].address, on_done=outcome.append)
    sim.run(until=sim.now + 200.0)
    assert outcome == [True]
    assert replacement.alive
    assert net.is_registered(replacement.address)
    assert not net.is_registered(old_addr)

    # A stale message addressed to the dead incarnation is dropped, not
    # delivered to the replacement.
    before = net.dropped("dead-destination")
    net.send(ring.nodes[0].address, old_addr, "stale", size=64)
    sim.run(until=sim.now + 1.0)
    assert net.dropped("dead-destination") == before + 1


def test_stranded_node_rejoins_through_bootstrap_cache():
    """A node that lost every successor, predecessor and finger (a long
    partition can do this) re-enters the ring via its bootstrap cache
    instead of staying isolated forever."""
    ring = build_chord_ring(num_nodes=16, seed=59)
    sim = ring.sim
    sim.run(until=100.0)  # a few stabilize rounds populate the cache
    node = ring.nodes[0]
    assert node._rejoin_contacts  # refreshed while healthy
    node.successors.replace([])
    node.predecessors.replace([])
    for entry in node.fingers.entries():
        node.fingers.remove_address(entry.address)
    assert node.successors.first is None

    sim.run(until=400.0)
    others = sorted(
        (n for n in ring.nodes if n is not node), key=lambda n: n.node_id
    )
    expected = next(
        (n for n in others if n.node_id > node.node_id), others[0]
    )
    succ = node.successors.first
    assert succ is not None
    assert succ.node_id == expected.node_id
