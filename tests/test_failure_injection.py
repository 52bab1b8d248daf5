"""Failure injection: partitioned messages, crashes mid-operation,
stale state."""

import random

import pytest

from repro.chord import LookupStyle
from repro.dht import DhtConfig, DHashNode, FastVerDiNode
from repro.faults import FaultPlan, Partition

from conftest import build_chord_ring, build_verme_ring, run_lookup


def cut_off(ring, minority, duration_s):
    """Sever hosts ``minority`` from the rest of ``ring`` for
    ``duration_s`` from now; returns the majority's nodes."""
    hosts = range(len(ring.nodes))
    ring.network.fault_plan = FaultPlan().add_partition(
        Partition.of(
            [minority, set(hosts) - set(minority)],
            ring.sim.now,
            ring.sim.now + duration_s,
        )
    )
    return [n for n in ring.nodes if n.address.host_slot not in minority]


def test_lookups_survive_moderate_message_loss():
    """A few hosts partitioned away: lookups from the rest route around
    the messages the partition drops."""
    ring = build_chord_ring(num_nodes=48, seed=71)
    total = 25
    majority = cut_off(ring, set(range(4)), total * 60.0)
    rng = random.Random(1)
    successes = 0
    for _ in range(total):
        results = []
        node = rng.choice(majority)
        node.lookup(
            rng.getrandbits(32), on_done=results.append, style=LookupStyle.RECURSIVE
        )
        ring.sim.run(until=ring.sim.now + 60)
        if results and results[0].success:
            successes += 1
    assert ring.network.dropped("partition") > 0
    assert successes >= 0.8 * total


def test_lookup_retries_counted_under_loss():
    """Lookups issued as a third of the hosts are cut off: first hops
    into that third time out, and those lookups retry."""
    ring = build_chord_ring(num_nodes=48, seed=73)
    majority = cut_off(ring, set(range(16)), 120.0)
    rng = random.Random(2)
    results = []
    for _ in range(30):
        rng.choice(majority).lookup(
            rng.getrandbits(32), on_done=results.append, style=LookupStyle.RECURSIVE
        )
    ring.sim.run(until=ring.sim.now + 60)
    assert len(results) == 30
    assert any(r.retries for r in results)


def test_initiator_crash_mid_lookup_no_crash():
    ring = build_chord_ring(num_nodes=32, seed=79)
    node = ring.nodes[0]
    results = []
    node.lookup(12345, on_done=results.append, style=LookupStyle.RECURSIVE)
    node.crash()  # before any reply can arrive
    ring.sim.run(until=ring.sim.now + 60)
    assert results == []  # callback suppressed, no exception raised


def test_responsible_node_crash_mid_fetch_fails_over():
    ring = build_chord_ring(num_nodes=48, seed=83)
    layers = [DHashNode(n, DhtConfig(num_replicas=4)) for n in ring.nodes]
    results = []
    layers[0].put(b"failover-block", results.append)
    ring.sim.run(until=ring.sim.now + 60)
    assert results and results[0].ok
    key = results[0].key
    ring.sim.run(until=ring.sim.now + 5)  # replicate
    # Crash the primary, then immediately get without waiting for
    # routing repair: the client retries the next replica.
    owner = ring.overlay.at(ring.overlay.owner(key).index)
    ring.node_for(owner.node_id).crash()
    got = []
    alive_layer = next(l for l in layers if l.node.alive)
    alive_layer.get(key, got.append)
    ring.sim.run(until=ring.sim.now + 120)
    assert got and got[0].ok
    assert got[0].value == b"failover-block"


def test_all_replicas_crashed_get_fails_cleanly():
    ring = build_chord_ring(num_nodes=48, seed=89)
    layers = [DHashNode(n, DhtConfig(num_replicas=3)) for n in ring.nodes]
    results = []
    layers[0].put(b"doomed-block", results.append)
    ring.sim.run(until=ring.sim.now + 60)
    key = results[0].key
    ring.sim.run(until=ring.sim.now + 5)
    holders = [l for l in layers if key in l.store]
    assert holders
    for holder in holders:
        holder.node.crash()
    got = []
    requester = next(l for l in layers if l.node.alive)
    requester.get(key, got.append)
    ring.sim.run(until=ring.sim.now + 200)
    assert got
    assert not got[0].ok
    assert got[0].error


def test_verme_lookup_survives_next_hop_crash():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=97)
    rng = random.Random(3)
    node = ring.nodes[0]
    # Crash half of the node's fingers: routing must fall back.
    fingers = node.fingers.entries()
    for victim_info in fingers[: len(fingers) // 2]:
        victim = ring.node_for(victim_info.node_id)
        if victim.alive:
            victim.crash()
    res = run_lookup(ring, node, rng.getrandbits(32))
    assert res.success


def test_stale_routing_state_corrected_by_stabilization():
    """Right after a crash a lookup may legitimately return the stale
    entry (clients fail over along the returned list); stabilization
    must purge it within a few rounds."""
    ring = build_chord_ring(num_nodes=32, seed=101)
    node = ring.nodes[0]
    first = node.successors.first
    ring.node_for(first.node_id).crash()
    key = first.node_id
    res = run_lookup(ring, node, key, style=LookupStyle.RECURSIVE)
    assert res.success  # not fatal even with stale state
    ring.sim.run(until=ring.sim.now + 120)  # several stabilize rounds
    res2 = run_lookup(ring, node, key, style=LookupStyle.RECURSIVE)
    assert res2.success
    assert all(e.node_id != first.node_id for e in res2.entries)


def test_crashed_node_rpc_layer_rejects_use():
    ring = build_chord_ring(num_nodes=8, seed=103)
    node = ring.nodes[0]
    node.crash()
    with pytest.raises(RuntimeError):
        node.rpc.call(ring.nodes[1].address, "ping", {})


def test_verdi_cross_copy_survives_loss():
    """Fast-VerDi puts from the majority side of a partition still store
    their cross-section copies."""
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=107)
    layers = [FastVerDiNode(n, DhtConfig(num_replicas=4)) for n in ring.nodes]
    majority = {n.address for n in cut_off(ring, set(range(6)), 10 * 120.0)}
    writers = [layer for layer in layers if layer.node.address in majority]
    oks = 0
    rng = random.Random(13)
    for i in range(10):
        results = []
        rng.choice(writers).put(bytes([i]) * 200, results.append)
        ring.sim.run(until=ring.sim.now + 120)
        if results and results[0].ok:
            oks += 1
    assert ring.network.dropped("partition") > 0
    assert oks >= 7
