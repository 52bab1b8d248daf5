"""Shared fixtures and ring-building helpers for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

import pytest

from repro.chord import ChordNode, OverlayConfig, instant_bootstrap
from repro.chord.ring import Population
from repro.crypto import CertificateAuthority
from repro.ids import IdSpace, NodeType, VermeIdLayout
from repro.net import ConstantLatency, Network, NodeAddress
from repro.overlay import StaticOverlay, VermeStaticOverlay
from repro.sim import Simulator
from repro.verme import VermeNode

SMALL_BITS = 32


@dataclass
class ChordRing:
    sim: Simulator
    network: Network
    config: OverlayConfig
    nodes: List[ChordNode]
    overlay: StaticOverlay

    def node_for(self, node_id: int) -> ChordNode:
        return next(n for n in self.nodes if n.node_id == node_id)


@dataclass
class VermeRing:
    sim: Simulator
    network: Network
    config: OverlayConfig
    layout: VermeIdLayout
    ca: CertificateAuthority
    nodes: List[VermeNode]
    overlay: VermeStaticOverlay

    def node_for(self, node_id: int) -> VermeNode:
        return next(n for n in self.nodes if n.node_id == node_id)

    def nodes_of_type(self, node_type: NodeType) -> List[VermeNode]:
        return [n for n in self.nodes if n.node_type is node_type]


def build_chord_ring(
    num_nodes: int = 32,
    seed: int = 1,
    num_successors: int = 4,
    one_way_latency: float = 0.02,
    bits: int = SMALL_BITS,
) -> ChordRing:
    space = IdSpace(bits)
    config = OverlayConfig(space=space, num_successors=num_successors)
    sim = Simulator()
    rng = random.Random(seed)
    network = Network(
        sim,
        ConstantLatency(num_hosts=num_nodes, one_way=one_way_latency),
    )
    used = set()
    nodes = []
    for i in range(num_nodes):
        nid = rng.getrandbits(bits)
        while nid in used:
            nid = rng.getrandbits(bits)
        used.add(nid)
        nodes.append(
            ChordNode(sim, network, config, nid, NodeAddress(i), random.Random(i))
        )
    overlay = instant_bootstrap(nodes)
    return ChordRing(sim, network, config, nodes, overlay)


def build_verme_ring(
    num_nodes: int = 64,
    num_sections: int = 8,
    seed: int = 2,
    num_successors: int = 4,
    num_predecessors: int = 4,
    one_way_latency: float = 0.02,
    bits: int = SMALL_BITS,
    node_class=VermeNode,
) -> VermeRing:
    space = IdSpace(bits)
    layout = VermeIdLayout.for_sections(space, num_sections)
    config = OverlayConfig(
        space=space,
        num_successors=num_successors,
        num_predecessors=num_predecessors,
    )
    sim = Simulator()
    rng = random.Random(seed)
    network = Network(sim, ConstantLatency(num_hosts=num_nodes + 4, one_way=one_way_latency))
    ca = CertificateAuthority()
    used = set()
    nodes = []
    for i in range(num_nodes):
        node_type = NodeType(i % 2)
        nid = layout.random_id(rng, node_type)
        while nid in used:
            nid = layout.random_id(rng, node_type)
        used.add(nid)
        cert, keys = ca.issue(nid, node_type)
        nodes.append(
            node_class(
                sim, network, config, layout, cert, keys, ca,
                NodeAddress(i), random.Random(i),
            )
        )
    overlay = instant_bootstrap(nodes)
    return VermeRing(sim, network, config, layout, ca, nodes, overlay)


def run_lookup(ring, node, key, **kwargs):
    """Issue one lookup and drive the sim until it completes."""
    results = []
    node.lookup(key, on_done=results.append, **kwargs)
    ring.sim.run(until=ring.sim.now + 120.0)
    assert results, "lookup never completed"
    return results[0]


def population_of(nodes) -> Population:
    pop = Population()
    for node in nodes:
        pop.add(node)
    return pop


@pytest.fixture
def chord_ring() -> ChordRing:
    return build_chord_ring()


@pytest.fixture
def verme_ring() -> VermeRing:
    return build_verme_ring()
