"""Overload experiment: goodput and tail latency across a flash crowd.

The paper never stresses the overlay's serving capacity — §7.1.1's
workload is one stationary Poisson process.  This experiment drives a
Zipf flash crowd (``repro.workload``) against a ring whose nodes have
finite service capacity (``repro.chord.admission``) and compares two
policies:

* ``shed`` — token-bucket + queue-depth admission at the lookup
  ingress: excess load is rejected immediately (``shed:rate`` /
  ``shed:queue``) and the initiator fails fast, so admitted requests
  still complete at pre-spike latency;
* ``noshed`` — the control: the same service queue with no admission
  limits, so the backlog (and with it latency, then timeouts and
  retries) grows without bound during the spike.

The headline criterion: under the spike, shedding keeps goodput within
20% of its pre-spike level while the no-shedding control degrades
measurably.  Churn is off — this cell isolates load, the fig5 grid
covers dynamics.  Both live engines run the cell bit-identically; the
cell seed deliberately excludes the engine name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..chord.admission import AdmissionStats, NodeAdmission, ServicePolicy
from ..chord.config import OverlayConfig
from ..ids.idspace import IdSpace
from ..obs import OBS
from ..sim import RngRegistry, Simulator
from ..workload import ServingStats, build_generator
from .builders import run_live_cell
from .records import OverloadRow

POLICIES = ("shed", "noshed")
SYSTEMS = ("chord-transitive", "chord-recursive", "verme")


@dataclass(frozen=True)
class OverloadConfig:
    """One overload cell; defaults sized to run in seconds.

    ``mean_lookup_interval_s`` 8 s at 120 nodes offers each node
    0.125 req/s of ingress — a quarter of its ``service_rate_per_s``
    capacity — so the 8x spike pushes offered load to twice capacity.
    ``lookup_timeout_s`` leaves headroom above the worst admitted
    queueing delay (``max_queue / service_rate_per_s``), so shed-policy
    lookups never time out spuriously; under ``noshed`` the unbounded
    backlog blows through it, which is the point.
    """

    num_nodes: int = 120
    num_sections: int = 16
    id_bits: int = 64
    duration_s: float = 600.0
    warmup_s: float = 60.0
    mean_lookup_interval_s: float = 8.0
    workload: str = "zipf"
    overload: str = "spike"
    system: str = "chord-recursive"
    engine: str = "object"
    latency_model: str = "king-matrix"
    mean_rtt_s: float = 0.198
    num_successors: int = 10
    num_predecessors: int = 10
    stabilize_interval_s: float = 30.0
    finger_interval_s: float = 60.0
    lookup_timeout_s: float = 20.0
    #: per-node virtual serving capacity (DHT forwards per second)
    service_rate_per_s: float = 0.5
    #: shed-policy queue bound; the noshed control is unbounded
    max_queue: int = 3
    #: shed-policy token bucket (sustained rate / burst allowance);
    #: set a notch above the service rate so sustained overload also
    #: exercises the queue-depth shed (both drop causes appear)
    bucket_rate_per_s: float = 0.6
    bucket_burst: float = 3.0
    seed: int = 0

    def overlay_config(self) -> OverlayConfig:
        return OverlayConfig(
            space=IdSpace(self.id_bits),
            num_successors=self.num_successors,
            num_predecessors=self.num_predecessors,
            stabilize_interval_s=self.stabilize_interval_s,
            finger_interval_s=self.finger_interval_s,
            lookup_timeout_s=self.lookup_timeout_s,
        )

    def policy(self, name: str) -> ServicePolicy:
        """The admission policy for one arm of the experiment."""
        if name == "shed":
            return ServicePolicy(
                service_rate_per_s=self.service_rate_per_s,
                max_queue=self.max_queue,
                bucket_rate_per_s=self.bucket_rate_per_s,
                bucket_burst=self.bucket_burst,
            )
        if name == "noshed":
            return ServicePolicy(service_rate_per_s=self.service_rate_per_s)
        raise ValueError(
            f"unknown policy {name!r} (available: {', '.join(POLICIES)})"
        )


def run_overload_cell(
    config: OverloadConfig, policy_name: str, run_index: int = 0
) -> Tuple[OverloadRow, int]:
    """One (policy, run) cell: build, spike, measure; returns the row
    and the kernel event count (for the perf harness)."""
    if config.system not in SYSTEMS:
        raise ValueError(f"unknown system {config.system!r}")
    from ..sim.rng import derive_seed

    # The engine name stays out of the seed: both engines must replay
    # the identical cell (the equivalence tests gate on it).
    rngs = RngRegistry(
        derive_seed(config.seed, f"overload:{policy_name}:r{run_index}")
    )
    policy = config.policy(policy_name)
    adm_stats = AdmissionStats()
    sim = Simulator()
    generator = build_generator(
        config.workload,
        config.overload,
        config.id_bits,
        config.mean_lookup_interval_s,
        config.duration_s,
        config.warmup_s,
    )
    stats = ServingStats(sim)
    prefix = f"overload.{policy_name}.r{run_index}"
    _, events = run_live_cell(
        "overload", prefix, config, config.system, rngs, sim, stats, generator,
        admission=lambda: NodeAdmission(policy, adm_stats),
    )
    window = generator.overload_window
    if window is not None:
        t0, t1 = window
    else:
        t0, t1 = config.warmup_s, config.duration_s
    row = OverloadRow(
        policy=policy_name,
        lookups=stats.total,
        successes=stats.successes,
        failures=stats.failures,
        shed_rate=adm_stats.shed_rate,
        shed_queue=adm_stats.shed_queue,
        p50_latency_s=stats.p50_latency_s if stats.successes else 0.0,
        p99_latency_s=stats.p99_latency_s if stats.successes else 0.0,
        p999_latency_s=stats.p999_latency_s if stats.successes else 0.0,
        goodput_pre_per_s=stats.goodput_per_s(config.warmup_s, t0),
        goodput_overload_per_s=stats.goodput_per_s(t0, t1),
        goodput_post_per_s=stats.goodput_per_s(t1, config.duration_s),
    )
    metrics = OBS.metrics
    if metrics is not None:
        metrics.counter(prefix + ".lookups").inc(stats.total)
        metrics.counter(prefix + ".lookup_failures").inc(stats.failures)
        metrics.counter(prefix + ".shed_rate").inc(adm_stats.shed_rate)
        metrics.counter(prefix + ".shed_queue").inc(adm_stats.shed_queue)
        metrics.counter(prefix + ".kernel_events").inc(events)
        if stats.successes:
            metrics.gauge(prefix + ".p50_latency_s").set(row.p50_latency_s)
            metrics.gauge(prefix + ".p99_latency_s").set(row.p99_latency_s)
            metrics.gauge(prefix + ".p999_latency_s").set(row.p999_latency_s)
        metrics.gauge(prefix + ".goodput_pre_per_s").set(row.goodput_pre_per_s)
        metrics.gauge(prefix + ".goodput_overload_per_s").set(
            row.goodput_overload_per_s
        )
        metrics.gauge(prefix + ".goodput_post_per_s").set(row.goodput_post_per_s)
    return row, events


def run_overload(config: OverloadConfig) -> List[OverloadRow]:
    """Both policy arms of the experiment, shed first."""
    return [run_overload_cell(config, policy)[0] for policy in POLICIES]


def smoke_config() -> OverloadConfig:
    """A seconds-scale cell for CI smoke runs."""
    return replace(
        OverloadConfig(),
        num_nodes=40,
        duration_s=240.0,
        warmup_s=30.0,
        mean_lookup_interval_s=4.0,
    )
