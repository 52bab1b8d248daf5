"""Ablations of the design choices DESIGN.md calls out.

1. **Naive fingers** — Verme ids/ownership but plain Chord finger
   targets (no §4.4 displacement).  Shows that the worm escapes its
   island through same-type finger entries.
2. **Single- vs. two-section replication** — §5.2's cross-type replica
   split.  Measures data availability after a whole type is wiped out
   by an outbreak (the paper's reliability argument).
3. **Predecessor corner rule load** — §4.4 accepts a load imbalance at
   section edges; this quantifies it against Chord.
4. **Multi-type sections** — the paper assumes two types (§4.1,
   generalisation deferred to the thesis); the id layout supports any
   power-of-two type count, and this ablation measures containment as
   the number of types grows.
5. **Tracker-assigned unstructured overlay** — §6.2: the same worm on a
   swarm whose tracker builds type islands vs. a conventional tracker.
6. **Fragments vs. replicas** — §5.1's skipped optimization: network
   bytes to durably place one block as (3, 6) erasure-coded fragments
   vs. six full replicas.

The worm ablations (1, 4) build their worm through
:data:`repro.worm.ENGINES`, the table :func:`~repro.worm.run_scenario`
uses, so they run on the columnar engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..analysis.load import LoadReport, sample_ownership
from ..chord.config import OverlayConfig
from ..chord.state import NodeInfo
from ..dht import DHashNode, DhtConfig
from ..dht.fragments import FragmentConfig, FragmentedDHashNode
from ..ids.draws import unique_ids
from ..ids.idspace import IdSpace
from ..ids.sections import VermeIdLayout
from ..net import ConstantLatency, Network
from ..net.addressing import NodeAddress
from ..overlay.snapshot import (
    NaiveFingerVermeOverlay,
    StaticOverlay,
    VermeStaticOverlay,
)
from ..sim import RngRegistry, Simulator
from ..unstructured import TrackerConfig, build_swarm, run_swarm_worm
from ..worm.knowledge import RoutingKnowledge
from ..worm.model import WormParams
from ..worm.scenarios import ENGINES, WormScenarioConfig, build_verme_population
from .builders import build_ring


# -- 1. naive fingers -----------------------------------------------------------------


@dataclass(frozen=True)
class NaiveFingerResult:
    infected_with_displacement: int
    infected_naive_fingers: int
    vulnerable: int


def run_naive_finger_ablation(
    config: WormScenarioConfig, until: Optional[float] = 300.0
) -> NaiveFingerResult:
    """Run the plain Verme worm twice: with the paper's displaced
    fingers and with naive Chord fingers on the same population."""
    rng = random.Random(config.seed)
    pop = build_verme_population(config, rng)
    verme_overlay = pop.overlay
    assert isinstance(verme_overlay, VermeStaticOverlay)
    naive_overlay = NaiveFingerVermeOverlay(verme_overlay.layout, verme_overlay.infos)

    counts = []
    for overlay in (verme_overlay, naive_overlay):
        knowledge = RoutingKnowledge(
            overlay,
            num_successors=config.num_successors,
            num_predecessors=config.num_predecessors,
            same_type_only=True,
            layout=overlay.layout,
        )
        sim = Simulator()
        worm = ENGINES[config.engine](
            sim, len(overlay), pop.vulnerable, knowledge, config.params
        )
        seed_rng = random.Random(config.seed + 1)
        worm.seed(seed_rng.choice([i for i, v in enumerate(pop.vulnerable) if v]))
        worm.run(until=until)
        counts.append(worm.infected_count)
    return NaiveFingerResult(
        infected_with_displacement=counts[0],
        infected_naive_fingers=counts[1],
        vulnerable=pop.vulnerable_count,
    )


# -- 2. replication availability --------------------------------------------------------


@dataclass(frozen=True)
class AvailabilityResult:
    samples: int
    survivors_two_sections: float   # fraction of keys still readable
    survivors_single_section: float


def run_replication_availability(
    config: WormScenarioConfig,
    per_group: int = 3,
    samples: int = 2000,
) -> AvailabilityResult:
    """Wipe out every node of the victim type (a successful outbreak)
    and measure what fraction of keys keep at least one live replica
    under VerDi's two-section placement vs. single-section placement."""
    rng = random.Random(config.seed)
    pop = build_verme_population(config, rng)
    overlay = pop.overlay
    assert isinstance(overlay, VermeStaticOverlay)
    layout = overlay.layout
    dead_type = int(config.victim_type)

    def alive(info: NodeInfo) -> bool:
        return layout.type_of(info.node_id) != dead_type

    two_ok = single_ok = 0
    for _ in range(samples):
        key = layout.random_key(rng)
        g1, g2 = overlay.cross_type_replica_groups(key, per_group)
        if any(alive(e) for e in g1 + g2):
            two_ok += 1
        single = overlay.replica_group(key, 2 * per_group)
        if any(alive(e) for e in single):
            single_ok += 1
    return AvailabilityResult(
        samples=samples,
        survivors_two_sections=two_ok / samples,
        survivors_single_section=single_ok / samples,
    )


# -- 3. ownership load ------------------------------------------------------------------


@dataclass(frozen=True)
class LoadComparison:
    chord: LoadReport
    verme: LoadReport


def run_load_comparison(
    num_nodes: int = 2000,
    num_sections: int = 128,
    samples: int = 50_000,
    seed: int = 0,
    id_bits: int = 64,
) -> LoadComparison:
    """Ownership distribution: Chord's successor rule vs. Verme's
    section-bounded rule with the predecessor corner case."""
    space = IdSpace(id_bits)
    layout = VermeIdLayout.for_sections(space, num_sections)
    ids = unique_ids(random.Random(seed), layout, [i % 2 for i in range(num_nodes)])
    infos = [NodeInfo(nid, NodeAddress(i)) for i, nid in enumerate(ids.tolist())]
    chord_overlay = StaticOverlay(space, infos)
    verme_overlay = VermeStaticOverlay(layout, infos)
    return LoadComparison(
        chord=sample_ownership(chord_overlay, samples, random.Random(seed + 1)),
        verme=sample_ownership(verme_overlay, samples, random.Random(seed + 1)),
    )


# -- 4. multi-type containment -------------------------------------------------------------


@dataclass(frozen=True)
class MultiTypeResult:
    type_bits: int
    num_types: int
    infected: int
    vulnerable: int

    @property
    def containment_fraction(self) -> float:
        return self.infected / self.vulnerable if self.vulnerable else 0.0


def run_multitype_containment(
    num_nodes: int = 4000,
    num_sections: int = 256,
    type_bits: int = 2,
    seed: int = 0,
    id_bits: int = 64,
    params: Optional[WormParams] = None,
    until: float = 300.0,
) -> MultiTypeResult:
    """Containment of the plain topological worm with ``2**type_bits``
    platform types (the thesis generalisation of §4.1).

    Nodes of type 0 are vulnerable.  With more types each island is as
    long but holds fewer vulnerable machines' worth of the population,
    and fingers remain cross-type by the same displacement rule.
    """
    space = IdSpace(id_bits)
    layout = VermeIdLayout.for_sections(space, num_sections, type_bits=type_bits)
    rng = random.Random(seed)
    ids = unique_ids(rng, layout, [i % layout.num_types for i in range(num_nodes)])
    infos = [NodeInfo(nid, NodeAddress(i)) for i, nid in enumerate(ids.tolist())]
    overlay = VermeStaticOverlay(layout, infos)
    vulnerable = [layout.type_of(nid) == 0 for nid in overlay.ids]
    knowledge = RoutingKnowledge(
        overlay,
        num_successors=10,
        num_predecessors=10,
        same_type_only=True,
        layout=layout,
    )
    sim = Simulator()
    worm = ENGINES["columnar"](
        sim, len(overlay), vulnerable, knowledge, params or WormParams()
    )
    worm.seed(rng.choice([i for i, v in enumerate(vulnerable) if v]))
    worm.run(until=until)
    return MultiTypeResult(
        type_bits=type_bits,
        num_types=layout.num_types,
        infected=worm.infected_count,
        vulnerable=sum(vulnerable),
    )


# -- 5. tracker-assigned unstructured overlay --------------------------------------------


@dataclass(frozen=True)
class TrackerResult:
    infected_containment: int
    infected_conventional: int
    vulnerable: int


def run_tracker_ablation() -> TrackerResult:
    """The same worm on two swarms of the same 2000 peers: one whose
    tracker assigns neighbours into type islands, one conventional."""
    config = TrackerConfig(island_size=24, same_island_neighbors=6, cross_type_neighbors=6)
    runs = [
        run_swarm_worm(build_swarm(2000, config, seed=11, containment=containment),
                       until=300.0, seed=11)
        for containment in (True, False)
    ]
    return TrackerResult(
        infected_containment=runs[0].infected,
        infected_conventional=runs[1].infected,
        vulnerable=runs[0].vulnerable_count,
    )


# -- 6. fragments vs. replicas -----------------------------------------------------------


@dataclass(frozen=True)
class PlacementResult:
    """Network bytes (client stores plus replica pushes) to place one block."""

    replicated_bytes: int
    fragmented_bytes: int


def run_fragment_placement() -> PlacementResult:
    """Place one 8 KiB block at durability 6 on a 64-node ring as six
    full replicas and as six (3, 6) erasure-coded fragments; overlay
    maintenance, identical in both, is excluded."""
    placed = []
    for cls, kwargs in (
        (DHashNode, {}),
        (FragmentedDHashNode, {"fragment_config": FragmentConfig(total=6, required=3)}),
    ):
        sim = Simulator()
        net = Network(sim, ConstantLatency(num_hosts=64, one_way=0.02))
        ring = build_ring(
            sim, net, OverlayConfig(space=IdSpace(64), num_successors=8), 64, RngRegistry(3)
        )
        layers = [cls(n, DhtConfig(num_replicas=6), **kwargs) for n in ring.nodes]
        done = []
        layers[0].put(random.Random(5).randbytes(8192), done.append)
        sim.run(until=sim.now + 120)  # include background replication
        if not (done and done[0].ok):
            raise RuntimeError(f"{cls.__name__}: the put did not complete")
        placed.append(
            net.accounting.category_bytes("data")
            + net.accounting.category_bytes("replication")
        )
    return PlacementResult(replicated_bytes=placed[0], fragmented_bytes=placed[1])
