"""Figures 6 and 7: DHT get/put latency and bandwidth.

Paper setup (§7.2): same overlay parameters as Fig. 5 but on a GT-ITM
transit-stub topology (the King data set has no bandwidth values).
Four systems are compared: DHash over Chord and the three VerDi
variants over Verme.  One run measures both figures: per-operation
latency (Fig. 6) and per-operation bytes via message tagging (Fig. 7);
background replication is excluded, as in the paper.

Expected shape: get latency Fast ≈ DHash < Compromise (≤ ~31% over
DHash) < Secure; put latency DHash < Fast ≈ Compromise < Secure;
bandwidth DHash ≈ Fast, Compromise ≈ 2x on gets, Secure pays a data
transfer per hop, and Fast/Compromise puts add one cross-type copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple, Type

from ..analysis.stats import OperationStats
from ..chord.config import OverlayConfig
from ..dht.base import DhtConfig, DhtNode, OpResult
from ..dht.compromise import CompromiseVerDiNode
from ..dht.dhash import DHashNode
from ..dht.fast import FastVerDiNode
from ..dht.secure import SecureVerDiNode
from ..ids.idspace import IdSpace
from ..ids.sections import VermeIdLayout
from ..net.gtitm import GtItmConfig, gtitm_topology
from ..net.message import DEFAULT_BLOCK_BYTES
from ..net.network import Network
from ..sim import RngRegistry, Simulator
from .builders import build_live_ring
from .records import DhtOpRow

DHT_SYSTEMS: Dict[str, Tuple[Type[DhtNode], bool]] = {
    # name -> (layer class, needs a Verme ring)
    "dhash": (DHashNode, False),
    "fast-verdi": (FastVerDiNode, True),
    "secure-verdi": (SecureVerDiNode, True),
    "compromise-verdi": (CompromiseVerDiNode, True),
}


@dataclass(frozen=True)
class DhtExperimentConfig:
    """Scaled-down defaults; ``paper_scale()`` restores §7.2's sizes."""

    num_nodes: int = 120                   # paper: 1740
    num_sections: int = 16                 # paper: 128
    id_bits: int = 64
    num_puts: int = 40
    num_gets: int = 40
    block_bytes: int = DEFAULT_BLOCK_BYTES
    num_replicas: int = 6
    num_successors: int = 10
    num_predecessors: int = 10
    op_interval_s: float = 2.0             # spacing between issued ops
    seed: int = 0
    engine: str = "object"                 # see builders.ENGINES

    def paper_scale(self) -> "DhtExperimentConfig":
        return replace(self, num_nodes=1740, num_sections=128, num_puts=200, num_gets=200)

    def overlay_config(self) -> OverlayConfig:
        return OverlayConfig(
            space=IdSpace(self.id_bits),
            num_successors=self.num_successors,
            num_predecessors=self.num_predecessors,
        )


@dataclass
class DhtCellResult:
    """Latency and bandwidth stats for one system's gets and puts."""

    system: str
    get_stats: OperationStats
    put_stats: OperationStats

    def rows(self) -> List[DhtOpRow]:
        out = []
        for op_name, stats in (("get", self.get_stats), ("put", self.put_stats)):
            lat = stats.latency_summary()
            byt = stats.bytes_summary()
            out.append(
                DhtOpRow(
                    system=self.system,
                    operation=op_name,
                    mean_latency_s=lat.mean,
                    median_latency_s=lat.median,
                    mean_bytes=byt.mean,
                    operations=stats.successes,
                    failures=stats.failures,
                )
            )
        return out


def run_dht_cell(config: DhtExperimentConfig, system: str) -> DhtCellResult:
    """Build one ring + DHT layer and drive the put/get workload."""
    return run_dht_cell_instrumented(config, system)[0]


def run_dht_cell_instrumented(
    config: DhtExperimentConfig, system: str
) -> Tuple[DhtCellResult, int]:
    """Like :func:`run_dht_cell` but also returns the kernel event
    count, for the perf-regression harness's events/s metric."""
    if system not in DHT_SYSTEMS:
        raise ValueError(f"unknown DHT system {system!r}")
    layer_cls, needs_verme = DHT_SYSTEMS[system]
    # str hashing is per-process randomised; derive_seed is stable.
    from ..sim.rng import derive_seed

    rngs = RngRegistry(derive_seed(config.seed, f"dht:{system}"))
    sim = Simulator()
    topology = gtitm_topology(
        GtItmConfig(num_hosts=config.num_nodes, seed=rngs.stream("gtitm").randrange(2**31))
    )
    # The scalar host models are numerically identical to the dense
    # matrices but keep memory at O(routers^2 + hosts), which is what
    # lets this cell run at 10k nodes.
    network = Network(
        sim, topology.host_latency, bandwidth_model=topology.host_bandwidth
    )
    overlay_cfg = config.overlay_config()
    layout = None
    if needs_verme:
        layout = VermeIdLayout.for_sections(overlay_cfg.space, config.num_sections)
    dht_cfg = DhtConfig(num_replicas=config.num_replicas)
    ring = build_live_ring(
        config.engine, sim, network, overlay_cfg, config.num_nodes, rngs, layout,
        dht=True,
    )
    layers = [layer_cls(node, dht_cfg) for node in ring.nodes]
    for layer in layers:
        layer.start()

    workload_rng = rngs.stream("ops")
    payload_rng = rngs.stream("payloads")
    get_stats = OperationStats()
    put_stats = OperationStats()
    accounting = network.accounting
    stored_keys: List[int] = []

    def record(stats: OperationStats) -> Callable[[OpResult], None]:
        def _cb(result: OpResult) -> None:
            stats.record(
                result.ok, result.latency_s, accounting.bytes_for_op(result.op_tag)
            )
            if result.ok and result.op == "put":
                stored_keys.append(result.key)

        return _cb

    # Phase 1: puts, spaced out so ops do not queue behind each other.
    values = [
        payload_rng.randbytes(config.block_bytes) for _ in range(config.num_puts)
    ]
    for i, value in enumerate(values):
        layer = workload_rng.choice(layers)
        sim.schedule(
            i * config.op_interval_s,
            lambda l=layer, v=value: l.put(v, record(put_stats)),
        )
    events = ring.run(config.num_puts * config.op_interval_s + 60.0)

    # Phase 2: gets of the stored blocks from random other clients.
    if stored_keys:
        base = sim.now
        for i in range(config.num_gets):
            key = workload_rng.choice(stored_keys)
            layer = workload_rng.choice(layers)
            sim.schedule(
                base - sim.now + i * config.op_interval_s,
                lambda l=layer, k=key: l.get(k, record(get_stats)),
            )
        events = ring.run(base + config.num_gets * config.op_interval_s + 60.0)

    for layer in layers:
        layer.stop()
    return DhtCellResult(system, get_stats, put_stats), events


def rows_for_figure(results: Sequence[DhtCellResult]) -> List[DhtOpRow]:
    rows: List[DhtOpRow] = []
    for res in results:
        rows.extend(res.rows())
    return rows
