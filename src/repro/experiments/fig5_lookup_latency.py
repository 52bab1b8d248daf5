"""Figure 5: lookup latency, Chord (transitive, recursive) vs. Verme.

Paper setup (§7.1.1): 1740 nodes on the King latency matrix (mean RTT
198 ms), 10 successors, stabilization every 30 s, finger stabilization
every 60 s, lookups with random keys per node at exponentially
distributed intervals of mean 30 s, 128 sections and 10 predecessors
for Verme, mean node lifetimes from 15 minutes to 8 hours, 12 simulated
hours, 8 runs.

The expected result: Verme's recursive lookups cost about the same as
recursive Chord, while transitive Chord is ~35% faster than both; node
dynamics barely move the comparison.  §7.1.2's text metrics (failure
rate, maintenance bandwidth) are reported alongside.

Defaults are scaled down so the driver runs in seconds; pass
``Fig5Config.paper_scale()`` for the full setup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..analysis.stats import LookupStats
from ..chord.config import OverlayConfig
from ..ids.idspace import IdSpace
from ..obs import OBS
from ..sim import RngRegistry, Simulator
from .builders import run_live_cell
from .records import Fig5Row

SYSTEMS = ("chord-transitive", "chord-recursive", "verme")


@dataclass(frozen=True)
class Fig5Config:
    """Scaled-down defaults; ``paper_scale()`` restores §7.1.1."""

    num_nodes: int = 120                   # paper: 1740
    num_sections: int = 16                 # paper: 128
    id_bits: int = 64                      # paper: 160
    mean_lifetimes_s: Tuple[float, ...] = (1800.0, 28800.0)
    # paper: (900, 1800, 3600, 14400, 28800)
    duration_s: float = 1800.0             # paper: 43200 (12 h)
    warmup_s: float = 120.0
    mean_lookup_interval_s: float = 30.0   # paper: 30 s
    mean_rtt_s: float = 0.198              # paper: King mean RTT
    num_successors: int = 10
    num_predecessors: int = 10
    stabilize_interval_s: float = 30.0
    finger_interval_s: float = 60.0
    runs: int = 1                          # paper: 8
    seed: int = 0
    #: ``"king-matrix"`` (dense, the default — exact historical
    #: behaviour) or ``"king-coords"`` (O(n)-state scalar model, the
    #: only feasible choice at >=10k nodes; see repro.net.king).
    latency_model: str = "king-matrix"
    #: ``"object"`` (the reference per-node protocol graph) or
    #: ``"columnar"`` (the flat-array engine of repro.chord.columnar;
    #: bit-identical metrics, required at >=100k nodes).
    engine: str = "object"
    #: key-popularity model: ``"poisson"`` (uniform keys, the paper's
    #: §7.1.1 process) or ``"zipf"`` (see repro.workload).
    workload: str = "poisson"
    #: arrival shape: ``"none"`` (stationary), ``"spike"``, ``"ramp"``
    #: or ``"diurnal"`` (see repro.workload.overload_shape).
    overload: str = "none"

    def paper_scale(self) -> "Fig5Config":
        return replace(
            self,
            num_nodes=1740,
            num_sections=128,
            mean_lifetimes_s=(900.0, 1800.0, 3600.0, 14400.0, 28800.0),
            duration_s=43200.0,
            runs=8,
        )

    def overlay_config(self) -> OverlayConfig:
        return OverlayConfig(
            space=IdSpace(self.id_bits),
            num_successors=self.num_successors,
            num_predecessors=self.num_predecessors,
            stabilize_interval_s=self.stabilize_interval_s,
            finger_interval_s=self.finger_interval_s,
        )


def run_cell(
    config: Fig5Config,
    system: str,
    mean_lifetime_s: float,
    run_index: int = 0,
) -> Fig5Row:
    """One (system, lifetime) cell of Fig. 5: build, churn, measure."""
    return run_cell_instrumented(config, system, mean_lifetime_s, run_index)[0]


def run_cell_instrumented(
    config: Fig5Config,
    system: str,
    mean_lifetime_s: float,
    run_index: int = 0,
) -> Tuple[Fig5Row, int]:
    """Like :func:`run_cell` but also returns the kernel event count,
    for the perf-regression harness's events/s metric."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    # str hashing is per-process randomised; derive_seed is stable.
    from ..sim.rng import derive_seed

    rngs = RngRegistry(
        derive_seed(config.seed, f"fig5:{system}:{mean_lifetime_s}:{run_index}")
    )
    sim = Simulator()
    # Non-default workload presets get a generator and serving stats
    # (tail latency / goodput); the defaults keep the plain LookupStats
    # and the exact historical RNG stream.
    generator = None
    if config.workload != "poisson" or config.overload != "none":
        from ..workload import ServingStats, build_generator

        generator = build_generator(
            config.workload,
            config.overload,
            config.id_bits,
            config.mean_lookup_interval_s,
            config.duration_s,
            config.warmup_s,
        )
        stats: LookupStats = ServingStats(sim)
    else:
        stats = LookupStats()
    # The per-cell prefix keeps grid cells distinct when snapshots merge.
    prefix = f"fig5.{system}.lt{mean_lifetime_s:g}.r{run_index}"
    network, events = run_live_cell(
        "fig5", prefix, config, system, rngs, sim, stats, generator,
        lifetime_s=mean_lifetime_s,
    )
    maintenance_bytes = network.accounting.category_bytes("maintenance")
    per_node_per_s = maintenance_bytes / (config.num_nodes * config.duration_s)
    latency_summary = stats.latency_summary()
    hops_summary = stats.hops_summary()
    row = Fig5Row(
        system=system,
        mean_lifetime_s=mean_lifetime_s,
        mean_latency_s=latency_summary.mean,
        median_latency_s=latency_summary.median,
        mean_hops=hops_summary.mean,
        failure_rate=stats.failure_rate,
        lookups=stats.total,
        maintenance_bytes_per_node_s=per_node_per_s,
    )
    metrics = OBS.metrics
    if metrics is not None:
        # Post-run publication (never in the event loop).
        metrics.counter(prefix + ".lookups").inc(stats.total)
        metrics.counter(prefix + ".lookup_failures").inc(stats.failures)
        metrics.counter(prefix + ".maintenance_bytes").inc(maintenance_bytes)
        metrics.counter(prefix + ".kernel_events").inc(events)
        if stats.total:
            metrics.gauge(prefix + ".failure_rate").set(stats.failure_rate)
        if stats.successes:
            metrics.gauge(prefix + ".mean_latency_s").set(latency_summary.mean)
            metrics.gauge(prefix + ".mean_hops").set(hops_summary.mean)
        if generator is not None and stats.successes:
            # Serving-quality snapshot: tail latency over the whole
            # cell, goodput over the measured interval, and the
            # pre/during/post split when the shape defines a window.
            metrics.gauge(prefix + ".p99_latency_s").set(stats.p99_latency_s)
            metrics.gauge(prefix + ".p999_latency_s").set(stats.p999_latency_s)
            metrics.gauge(prefix + ".goodput_per_s").set(
                stats.goodput_per_s(config.warmup_s, config.duration_s)
            )
            window = generator.overload_window
            if window is not None:
                t0, t1 = window
                metrics.gauge(prefix + ".goodput_pre_per_s").set(
                    stats.goodput_per_s(config.warmup_s, t0)
                )
                metrics.gauge(prefix + ".goodput_overload_per_s").set(
                    stats.goodput_per_s(t0, t1)
                )
                metrics.gauge(prefix + ".goodput_post_per_s").set(
                    stats.goodput_per_s(t1, config.duration_s)
                )
    return row, events


def average_fig5_rows(cells: List[Fig5Row]) -> Fig5Row:
    n = len(cells)
    first = cells[0]
    if n == 1:
        return first
    return Fig5Row(
        system=first.system,
        mean_lifetime_s=first.mean_lifetime_s,
        mean_latency_s=sum(c.mean_latency_s for c in cells) / n,
        median_latency_s=sum(c.median_latency_s for c in cells) / n,
        mean_hops=sum(c.mean_hops for c in cells) / n,
        failure_rate=sum(c.failure_rate for c in cells) / n,
        lookups=sum(c.lookups for c in cells),
        maintenance_bytes_per_node_s=sum(
            c.maintenance_bytes_per_node_s for c in cells
        )
        / n,
    )
