"""Swarm construction and worm runs on tracker-assigned graphs (§6.2).

Builds a static unstructured overlay (every peer announces to the
tracker and receives a neighbour set), extracts the worm's knowledge
graph from the neighbour sets, and runs the standard worm model over
it — the unstructured counterpart of the Fig. 8 scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..crypto.certificates import CertificateAuthority
from ..ids.assignment import NodeType
from ..net.addressing import NodeAddress
from ..sim import Simulator
from ..worm.columnar import ColumnarWormSimulation
from ..worm.knowledge import GraphKnowledge
from ..worm.model import InfectionCurve, WormParams
from .tracker import PeerRecord, Tracker, TrackerConfig


@dataclass
class Swarm:
    """A fully-announced unstructured overlay."""

    tracker: Tracker
    peers: List[PeerRecord]
    neighbor_sets: Dict[int, List[PeerRecord]]
    index_of: Dict[int, int]  # peer id -> dense index

    def knowledge_graph(self, same_type_only: bool = True) -> Dict[int, List[int]]:
        """Dense-index adjacency the worm will follow.

        Peer software knows its neighbours' types (the tracker's
        assignment is type-aware and clients exchange handshakes), so a
        worm skips opposite-type targets, as on Verme.
        """
        graph: Dict[int, List[int]] = {}
        types = {p.peer_id: p.claimed_type for p in self.peers}
        for peer_id, neighbors in self.neighbor_sets.items():
            me = types[peer_id]
            targets = [
                self.index_of[n.peer_id]
                for n in neighbors
                if not same_type_only or n.claimed_type is me
            ]
            graph[self.index_of[peer_id]] = targets
        return graph


@dataclass
class SwarmWormResult:
    curve: InfectionCurve
    vulnerable_count: int
    infected: int
    islands: int

    @property
    def containment_fraction(self) -> float:
        return self.infected / self.vulnerable_count if self.vulnerable_count else 0.0


def build_swarm(
    num_peers: int,
    config: TrackerConfig,
    seed: int = 0,
    containment: bool = True,
) -> Swarm:
    """Announce ``num_peers`` (half of each type) and assign neighbours."""
    rng = random.Random(seed)
    ca = CertificateAuthority()
    tracker = Tracker(config, ca, random.Random(seed + 1), containment=containment)
    peers: List[PeerRecord] = []
    for i in range(num_peers):
        node_type = NodeType(i % 2)
        peer_id = rng.getrandbits(63)
        cert, _keys = ca.issue(peer_id, node_type)
        record = tracker.announce(peer_id, NodeAddress(i), cert)
        assert record is not None
        peers.append(record)
    neighbor_sets = {p.peer_id: tracker.neighbors_for(p.peer_id) for p in peers}
    index_of = {p.peer_id: i for i, p in enumerate(peers)}
    return Swarm(tracker, peers, neighbor_sets, index_of)


def run_swarm_worm(
    swarm: Swarm,
    victim_type: NodeType = NodeType.A,
    params: Optional[WormParams] = None,
    until: float = 300.0,
    seed: int = 0,
    same_type_knowledge: bool = True,
) -> SwarmWormResult:
    """Seed the worm on one victim-type peer and run it to quiescence."""
    vulnerable = [p.claimed_type is victim_type for p in swarm.peers]
    graph = swarm.knowledge_graph(same_type_only=same_type_knowledge)
    sim = Simulator()
    worm = ColumnarWormSimulation(
        sim, len(swarm.peers), vulnerable, GraphKnowledge(graph),
        params or WormParams(),
    )
    rng = random.Random(seed)
    worm.seed(rng.choice([i for i, v in enumerate(vulnerable) if v]))
    worm.run(until=until)
    islands = len(swarm.tracker.islands_of(victim_type))
    return SwarmWormResult(
        curve=worm.curve,
        vulnerable_count=sum(vulnerable),
        infected=worm.infected_count,
        islands=islands,
    )
