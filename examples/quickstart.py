"""Quickstart: build a Verme ring, store and fetch data through VerDi.

Run:  python examples/quickstart.py

Builds a 64-node Verme overlay (two platform types, 8 type-alternating
sections), attaches the Fast-VerDi DHT, performs a put and a get from
clients of *different* types, and prints what happened — including the
worm-containment invariant check on the live routing tables.
"""

import random

from repro.chord import OverlayConfig, instant_bootstrap
from repro.crypto import CertificateAuthority
from repro.dht import DhtConfig, FastVerDiNode
from repro.ids import IdSpace, NodeType, VermeIdLayout
from repro.net import ConstantLatency, Network, NodeAddress
from repro.sim import Simulator
from repro.invariants import RingSnapshot, check_containment
from repro.verme import VermeNode, min_safe_sections


def build_ring(num_nodes=128, num_sections=None, seed=1):
    # Pick a section count that keeps 6-entry successor lists inside
    # two sections (the paper's §4.3 sizing condition).
    if num_sections is None:
        num_sections = min_safe_sections(num_nodes, neighbor_list_length=6)
    space = IdSpace(64)
    layout = VermeIdLayout.for_sections(space, num_sections)
    config = OverlayConfig(space=space, num_successors=6, num_predecessors=6)
    sim = Simulator()
    network = Network(sim, ConstantLatency(num_hosts=num_nodes, one_way=0.025))
    ca = CertificateAuthority()
    rng = random.Random(seed)
    nodes, used = [], set()
    for i in range(num_nodes):
        node_type = NodeType(i % 2)
        node_id = layout.random_id(rng, node_type)
        while node_id in used:
            node_id = layout.random_id(rng, node_type)
        used.add(node_id)
        cert, keys = ca.issue(node_id, node_type)
        nodes.append(
            VermeNode(sim, network, config, layout, cert, keys, ca,
                      NodeAddress(i), random.Random(i))
        )
    instant_bootstrap(nodes)
    return sim, layout, nodes


def main():
    sim, layout, nodes = build_ring()
    print(f"Built a Verme ring: {len(nodes)} nodes, "
          f"{layout.num_sections} sections of length 2^{layout.section_bits}")

    # The containment invariant, checked live: no routing entry is a
    # same-type node from a different section.
    violations = check_containment(RingSnapshot.capture(nodes, sim.now))
    print(f"Containment invariant violations in routing state: {len(violations)}")

    # Attach the Fast-VerDi DHT and run a cross-type put/get.
    dhts = [FastVerDiNode(node, DhtConfig(num_replicas=6)) for node in nodes]
    writer = next(d for d in dhts if d.node.node_type is NodeType.A)
    reader = next(d for d in dhts if d.node.node_type is NodeType.B)

    value = b"verme quickstart block"
    outcome = {}
    key = writer.put(value, lambda res: outcome.update(put=res))
    sim.run(until=sim.now + 60)
    put = outcome["put"]
    print(f"put: ok={put.ok} key={key:#x} latency={put.latency_s * 1000:.0f} ms")

    reader.get(key, lambda res: outcome.update(get=res))
    sim.run(until=sim.now + 60)
    got = outcome["get"]
    print(f"get (opposite-type client): ok={got.ok} "
          f"latency={got.latency_s * 1000:.0f} ms "
          f"value matches: {got.value == value}")

    # Where did the replicas land?  Half in the key's section, half in
    # the next (opposite-type) section.
    holders = [(d.node.node_type.name,
                layout.section_index(d.node.node_id))
               for d in dhts if key in d.store]
    print(f"replica holders (type, section): {sorted(holders)}")


if __name__ == "__main__":
    main()
