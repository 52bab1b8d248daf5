"""Resilience experiment: lookup availability across a partition.

The paper argues about behaviour under adversity but only measures
churn; this driver measures what the fault layer unlocks.  A ring
(Chord recursive or Verme) runs a Poisson lookup workload while a
scripted :class:`~repro.faults.Partition` severs a minority of hosts
from the rest between ``partition_start_s`` and ``partition_heal_s``.
Reported per system:

* lookup success rate before / during / after the partition (the
  degradation concentrates at the onset: once each side has purged the
  other, lookups "succeed" against the degenerate sub-ring);
* **ring coherence** — the fraction of nodes whose first successor is
  the true ring neighbour, sampled every ``bucket_s`` — and the
  **ring-repair time**: how long after the heal until coherence is
  back to ``recovered_fraction`` of its pre-partition level (the
  partition is kept shorter than ``num_successors`` stabilization
  rounds, so surviving cross-group successor entries let the rings
  re-knit — Chord cannot merge two fully disjoint rings without a
  bootstrap);
* failure-detector aggregates (timeouts, retransmissions, peak
  suspected peers, mean suspicion duration) and the partition's
  cause-tagged drop count from the network.

Everything is deterministic from ``ResilienceConfig.seed``: the
workload, ids and jitter all draw from derived streams, and the fault
plan draws nothing.  A window with no samples raises instead of
reporting NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from ..chord.config import OverlayConfig
from ..chord.lookup import LookupStyle
from ..chord.ring import LookupWorkload
from ..faults import FaultPlan, Partition
from ..ids.idspace import IdSpace
from ..ids.sections import VermeIdLayout
from ..net.latency import ConstantLatency
from ..net.network import Network
from ..obs import OBS, maybe_phase
from ..sim import RngRegistry, Simulator
from ..sim.rng import derive_seed
from .builders import build_ring
from .records import ResilienceRow

SYSTEMS = ("chord", "verme")


@dataclass(frozen=True)
class ResilienceConfig:
    """Scaled for seconds of wall time; ``paper_scale()`` grows it."""

    num_nodes: int = 64
    num_sections: int = 8
    id_bits: int = 64
    num_successors: int = 8
    num_predecessors: int = 8
    stabilize_interval_s: float = 30.0
    finger_interval_s: float = 60.0
    one_way_latency_s: float = 0.05
    mean_lookup_interval_s: float = 10.0
    # Partition a fifth of the hosts for ~3 stabilization rounds.
    partition_fraction: float = 0.2
    partition_start_s: float = 240.0
    partition_heal_s: float = 330.0
    duration_s: float = 900.0
    warmup_s: float = 60.0
    bucket_s: float = 30.0
    recovered_fraction: float = 0.95
    rpc_max_retransmits: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.partition_fraction < 1.0:
            raise ValueError("partition_fraction must be in (0, 1)")
        if not (
            self.warmup_s
            < self.partition_start_s
            < self.partition_heal_s
            < self.duration_s
        ):
            raise ValueError(
                "need warmup < partition start < heal < duration"
            )

    def paper_scale(self) -> "ResilienceConfig":
        return replace(
            self,
            num_nodes=1740,
            num_sections=128,
            id_bits=160,
            num_successors=10,
            num_predecessors=10,
            partition_start_s=1200.0,
            partition_heal_s=1440.0,
            duration_s=3600.0,
        )

    def overlay_config(self) -> OverlayConfig:
        return OverlayConfig(
            space=IdSpace(self.id_bits),
            num_successors=self.num_successors,
            num_predecessors=self.num_predecessors,
            stabilize_interval_s=self.stabilize_interval_s,
            finger_interval_s=self.finger_interval_s,
            rpc_max_retransmits=self.rpc_max_retransmits,
        )

    def minority_hosts(self) -> range:
        return range(int(self.num_nodes * self.partition_fraction))

    def fault_plan(self) -> FaultPlan:
        minority = frozenset(self.minority_hosts())
        majority = frozenset(range(self.num_nodes)) - minority
        return FaultPlan().add_partition(
            Partition(
                (minority, majority),
                self.partition_start_s,
                self.partition_heal_s,
            )
        )


def _window(
    series: Sequence[Tuple[float, float]], start: float, end: float, metric: str
) -> List[float]:
    """The values of ``series`` sampled in ``[start, end)``; raises when
    there are none, so ``metric`` is never reported as NaN."""
    window = [v for t, v in series if start <= t < end]
    if not window:
        raise ValueError(
            f"resilience {metric}: no samples in the window [{start}, {end}) s"
        )
    return window


def _success_rate(
    samples: Sequence[Tuple[float, bool]], start: float, end: float, metric: str
) -> Tuple[float, int]:
    window = _window(samples, start, end, metric)
    return sum(window) / len(window), len(window)


def _ring_coherence(population) -> float:
    """Fraction of alive nodes whose first successor is the true ring
    neighbour (the invariant Zave's Chord analysis centres on)."""
    nodes = sorted(population.nodes, key=lambda n: n.node_id)
    if len(nodes) < 2:
        return 1.0
    ok = 0
    for i, node in enumerate(nodes):
        expected = nodes[(i + 1) % len(nodes)]
        succ = node.successors.first
        if succ is not None and succ.node_id == expected.node_id:
            ok += 1
    return ok / len(nodes)


def _mean_in_window(
    series: Sequence[Tuple[float, float]], start: float, end: float, metric: str
) -> float:
    window = _window(series, start, end, metric)
    return sum(window) / len(window)


def _repair_time(
    coherence: Sequence[Tuple[float, float]],
    config: ResilienceConfig,
    pre_level: float,
) -> Optional[float]:
    """First post-heal coherence sample back at the recovery bar."""
    target = config.recovered_fraction * pre_level
    for t, value in coherence:
        if t >= config.partition_heal_s and value >= target:
            return t - config.partition_heal_s
    return None


def run_resilience_cell(
    config: ResilienceConfig, system: str, run_index: int = 0
) -> ResilienceRow:
    """One system through the partition-and-heal scenario."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    rngs = RngRegistry(
        derive_seed(config.seed, f"resilience:{system}:{run_index}")
    )
    sim = Simulator()
    plan = config.fault_plan()
    network = Network(
        sim,
        ConstantLatency(
            num_hosts=config.num_nodes, one_way=config.one_way_latency_s
        ),
        fault_plan=plan,
    )
    overlay_cfg = config.overlay_config()
    layout = None
    if system == "verme":
        layout = VermeIdLayout.for_sections(
            overlay_cfg.space, config.num_sections
        )
    ring = build_ring(
        sim, network, overlay_cfg, config.num_nodes, rngs, layout
    )

    samples: List[Tuple[float, bool]] = []
    workload = LookupWorkload(
        sim,
        ring.population,
        rngs.stream("workload"),
        style=LookupStyle.RECURSIVE,
        mean_interval_s=config.mean_lookup_interval_s,
        warmup_s=config.warmup_s,
        on_result=lambda res: samples.append((sim.now, res.success)),
    )
    workload.start()

    inv = OBS.invariants
    if inv is not None:
        inv.watch(
            sim,
            ring.population,
            layout=layout,
            fault_plan=plan,
            until=config.duration_s,
            interval_s=config.bucket_s,
            cell=f"resilience.{system}.r{run_index}",
        )

    coherence: List[Tuple[float, float]] = []

    def probe() -> None:
        coherence.append((sim.now, _ring_coherence(ring.population)))
        if sim.now + config.bucket_s <= config.duration_s:
            sim.schedule(config.bucket_s, probe)

    sim.schedule(config.bucket_s, probe)
    with maybe_phase("resilience.run", sim):
        sim.run(until=config.duration_s)

    pre_rate, pre_n = _success_rate(
        samples, config.warmup_s, config.partition_start_s, "pre_success_rate"
    )
    during_rate, during_n = _success_rate(
        samples,
        config.partition_start_s,
        config.partition_heal_s,
        "partition_success_rate",
    )
    post_rate, post_n = _success_rate(
        samples, config.partition_heal_s, config.duration_s, "post_success_rate"
    )
    pre_coherence = _mean_in_window(
        coherence, config.warmup_s, config.partition_start_s, "pre-partition coherence"
    )
    min_coherence = min(
        _window(
            coherence,
            config.partition_start_s,
            config.partition_heal_s,
            "min_ring_coherence",
        )
    )
    detectors = [node.rpc.detector for node in ring.population.nodes]
    recoveries = [r for d in detectors for r in d.recovery_times_s]
    row = ResilienceRow(
        system=system,
        pre_success_rate=pre_rate,
        partition_success_rate=during_rate,
        post_success_rate=post_rate,
        min_ring_coherence=min_coherence,
        repair_time_s=_repair_time(coherence, config, pre_coherence),
        lookups=pre_n + during_n + post_n,
        rpc_timeouts=sum(d.timeouts for d in detectors),
        rpc_retransmits=sum(d.retransmits for d in detectors),
        max_suspected_peers=max(len(d.suspected) for d in detectors),
        partition_drops=network.dropped("partition"),
        mean_recovery_s=(
            sum(recoveries) / len(recoveries) if recoveries else 0.0
        ),
    )
    metrics = OBS.metrics
    if metrics is not None:
        prefix = f"resilience.{system}.r{run_index}"
        metrics.counter(prefix + ".lookups").inc(row.lookups)
        metrics.counter(prefix + ".rpc_timeouts").inc(row.rpc_timeouts)
        metrics.counter(prefix + ".rpc_retransmits").inc(row.rpc_retransmits)
        metrics.counter(prefix + ".partition_drops").inc(row.partition_drops)
        metrics.gauge(prefix + ".min_ring_coherence").set(row.min_ring_coherence)
    return row


def run_resilience(
    config: ResilienceConfig, systems: Sequence[str] = SYSTEMS
) -> List[ResilienceRow]:
    return [run_resilience_cell(config, system) for system in systems]
