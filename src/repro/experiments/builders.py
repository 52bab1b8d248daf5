"""Shared construction helpers for the experiment drivers.

Builds complete Chord or Verme rings (nodes + network + instant
bootstrap) and provides the node factories the churn driver uses to
rejoin replacements through the real protocol.  :func:`build_live_ring`
is the one place a live experiment picks its engine: the object
:class:`BuiltRing` and :class:`~repro.chord.columnar.ColumnarEngine`
are driven, run and counted through the same surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from ..analysis.stats import LookupStats
from ..chord.columnar import UNSUPPORTED, ColumnarEngine
from ..chord.columnar_dht import ColumnarDhtEngine
from ..chord.config import OverlayConfig
from ..chord.lookup import LookupStyle
from ..chord.node import ChordNode
from ..chord.ring import ChurnDriver, LookupWorkload, Population, instant_bootstrap
from ..crypto.certificates import CertificateAuthority
from ..ids.assignment import NodeType
from ..ids.draws import unique_id
from ..ids.sections import VermeIdLayout
from ..net.addressing import NodeAddress
from ..net.king import king_model
from ..net.network import Network
from ..obs import OBS, maybe_phase
from ..sim import RngRegistry, Simulator
from ..verme.node import VermeNode

#: The live engines and what each does not support (row -> wording);
#: the object engine is the reference semantics and refuses nothing.
ENGINES = {"columnar": UNSUPPORTED, "object": {}}


@dataclass
class BuiltRing:
    """A ready-to-run object-engine overlay: live nodes plus the pieces
    drivers need, behind the columnar engine's drive/run/count surface."""

    sim: Simulator
    network: Network
    config: OverlayConfig
    nodes: List[ChordNode]
    population: Population
    factory: "ChordNodeFactory"

    def start_churn(self, rng, mean_lifetime_s: float) -> None:
        """Exponential lifetimes (:class:`ChurnDriver`)."""
        ChurnDriver(self.sim, self.population, self.factory, rng, mean_lifetime_s).start()

    def start_workload(
        self, rng, style: LookupStyle, mean_interval_s: float, stats: LookupStats,
        warmup_s: float, generator=None,
    ) -> None:
        """Lookups from random alive nodes (:class:`LookupWorkload`)."""
        LookupWorkload(
            self.sim, self.population, rng, style, mean_interval_s, stats, warmup_s,
            generator=generator,
        ).start()

    def run(self, until: float) -> int:
        """Run to ``until``; returns :meth:`logical_events`."""
        self.sim.run(until=until)
        return self.logical_events(until)

    def logical_events(self, upto: float) -> int:
        """Events processed so far (every one is a kernel event here)."""
        return self.sim.events_processed


class ChordNodeFactory:
    """Creates Chord nodes with fresh uniformly random ids; each gets its
    own ``admission()`` when that per-node factory is set."""

    admission: Optional[Callable[[], object]] = None

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: OverlayConfig,
        rngs: RngRegistry,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.rngs = rngs
        self._id_rng = rngs.stream("node-ids")
        self._used_ids: Set[int] = set()

    def create(self, host_slot: int, incarnation: int) -> ChordNode:
        """A new node for ``host_slot``'s ``incarnation``."""
        node = self._new_node(host_slot, incarnation)
        if self.admission is not None:
            node.admission = self.admission()
        return node

    def _new_node(self, host_slot: int, incarnation: int) -> ChordNode:
        address = NodeAddress(host_slot, incarnation)
        node_id = unique_id(self._id_rng, self.config.space, 0, self._used_ids)
        jitter = self.rngs.stream(f"jitter-{host_slot}-{incarnation}")
        return ChordNode(self.sim, self.network, self.config, node_id, address, jitter)


class VermeNodeFactory(ChordNodeFactory):
    """Creates Verme nodes; each host slot has a fixed platform type
    (machines do not change platforms when their node restarts)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: OverlayConfig,
        rngs: RngRegistry,
        layout: VermeIdLayout,
        ca: Optional[CertificateAuthority] = None,
    ) -> None:
        super().__init__(sim, network, config, rngs)
        self.layout = layout
        self.ca = ca if ca is not None else CertificateAuthority()

    def type_for_host(self, host_slot: int) -> NodeType:
        """The platform type of every node ever run on ``host_slot``."""
        return NodeType(host_slot % 2)

    def _new_node(self, host_slot: int, incarnation: int) -> VermeNode:
        node_type = self.type_for_host(host_slot)
        node_id = unique_id(self._id_rng, self.layout, node_type, self._used_ids)
        cert, keys = self.ca.issue(node_id, node_type)
        address = NodeAddress(host_slot, incarnation)
        jitter = self.rngs.stream(f"jitter-{host_slot}-{incarnation}")
        return VermeNode(
            self.sim,
            self.network,
            self.config,
            self.layout,
            cert,
            keys,
            self.ca,
            address,
            jitter,
        )


def build_ring(
    sim: Simulator,
    network: Network,
    config: OverlayConfig,
    num_nodes: int,
    rngs: RngRegistry,
    layout: Optional[VermeIdLayout] = None,
    admission: Optional[Callable[[], object]] = None,
) -> BuiltRing:
    """Create ``num_nodes`` nodes (Verme when ``layout`` is given) on
    host slots 0..n-1, instantly bootstrapped into a converged ring;
    ``admission`` is the per-node admission factory, if any."""
    if layout is not None:
        factory: ChordNodeFactory = VermeNodeFactory(
            sim, network, config, rngs, layout
        )
    else:
        factory = ChordNodeFactory(sim, network, config, rngs)
    factory.admission = admission
    nodes = [factory.create(slot, 0) for slot in range(num_nodes)]
    instant_bootstrap(nodes)
    population = Population()
    for node in nodes:
        population.add(node)
    return BuiltRing(sim, network, config, nodes, population, factory)


def build_live_ring(
    engine: str,
    sim: Simulator,
    network: Network,
    config: OverlayConfig,
    num_nodes: int,
    rngs: RngRegistry,
    layout: Optional[VermeIdLayout] = None,
    admission: Optional[Callable[[], object]] = None,
    dht: bool = False,
):
    """A converged ring of ``num_nodes`` on the named :data:`ENGINES`
    engine, drawing the same RNG streams either way.  ``admission`` is a
    per-node admission factory (respawns included); ``dht`` lists every
    node as a DHT-layer host in ``nodes``."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (available: {', '.join(ENGINES)})")
    if engine == "object":
        return build_ring(sim, network, config, num_nodes, rngs, layout, admission)
    ring = (ColumnarDhtEngine if dht else ColumnarEngine)(sim, network, config, layout)
    if admission is not None:
        ring.set_admission(admission)
    ring.build(num_nodes, rngs)
    return ring


def run_live_cell(
    phase: str, cell: str, config, system: str, rngs: RngRegistry, sim: Simulator,
    stats: LookupStats, generator=None, lifetime_s: Optional[float] = None,
    admission: Optional[Callable[[], object]] = None,
):
    """Build, drive and run one fig5-style cell (``config`` a
    ``Fig5Config`` or ``OverloadConfig``) for ``system``, in the drivers'
    RNG order: King network, ring on ``config.engine``, churn when
    ``lifetime_s`` is set, the workload into ``stats``, invariant sampling
    as ``cell``.  Returns the network and the logical event count."""
    with maybe_phase(phase + ".build"):
        latency = king_model(
            config.latency_model, config.num_nodes, config.mean_rtt_s,
            rngs.stream("king").randrange(2**31),
        )
        network = Network(sim, latency)
        overlay = config.overlay_config()
        layout = None
        if system == "verme":
            layout = VermeIdLayout.for_sections(overlay.space, config.num_sections)
        ring = build_live_ring(
            config.engine, sim, network, overlay, config.num_nodes, rngs, layout, admission
        )
        if lifetime_s is not None:
            ring.start_churn(rngs.stream("churn"), lifetime_s)
        ring.start_workload(
            rngs.stream("workload"),
            LookupStyle.TRANSITIVE if system == "chord-transitive" else LookupStyle.RECURSIVE,
            config.mean_lookup_interval_s, stats, config.warmup_s, generator,
        )
        if OBS.invariants is not None:
            # About 20 samples per cell, never faster than stabilization
            # (checking faster than the protocol repairs is noise).
            OBS.invariants.watch(
                sim, ring.population, layout=layout, until=config.duration_s,
                interval_s=max(config.duration_s / 20.0, config.stabilize_interval_s),
                cell=cell,
            )
    with maybe_phase(phase + ".run", sim):
        return network, ring.run(config.duration_s)
