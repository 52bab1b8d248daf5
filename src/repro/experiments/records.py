"""Typed result rows for the reproduced figures.

Each experiment driver returns a list of these; the runner prints them
as tables and the fidelity ledger judges the paper's claims on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Fig5Row:
    """One point of Fig. 5 plus the §7.1 text metrics."""

    system: str                      # chord-transitive / chord-recursive / verme
    mean_lifetime_s: float
    mean_latency_s: float
    median_latency_s: float
    mean_hops: float
    failure_rate: float
    lookups: int
    maintenance_bytes_per_node_s: float


@dataclass(frozen=True)
class DhtOpRow:
    """One bar of Fig. 6 (latency) and Fig. 7 (bandwidth)."""

    system: str                      # dhash / fast-verdi / secure-verdi / compromise-verdi
    operation: str                   # get / put
    mean_latency_s: float
    median_latency_s: float
    mean_bytes: float
    operations: int
    failures: int


@dataclass(frozen=True)
class ResilienceRow:
    """One system's behaviour across a partition-and-heal scenario."""

    system: str                      # chord / verme
    pre_success_rate: float          # lookups before the partition
    partition_success_rate: float    # lookups during the partition
    post_success_rate: float         # lookups after the heal
    min_ring_coherence: float        # worst successor-ring integrity seen
    repair_time_s: Optional[float]   # heal -> ring coherence recovered
    lookups: int
    rpc_timeouts: int                # failure-detector timeouts, all nodes
    rpc_retransmits: int             # backoff retransmissions, all nodes
    max_suspected_peers: int         # most peers one node suspects at the end
    partition_drops: int             # messages the partition severed
    mean_recovery_s: float           # mean detector suspicion duration


@dataclass(frozen=True)
class OverloadRow:
    """One admission policy's serving quality across a load spike."""

    policy: str                      # shed / noshed
    lookups: int
    successes: int
    failures: int
    shed_rate: int                   # token-bucket rejections
    shed_queue: int                  # queue-depth rejections
    p50_latency_s: float
    p99_latency_s: float
    p999_latency_s: float
    goodput_pre_per_s: float         # before the overload window
    goodput_overload_per_s: float    # inside it
    goodput_post_per_s: float        # after it


@dataclass(frozen=True)
class Fig8Row:
    """One curve of Fig. 8, summarised."""

    scenario: str
    population: int
    vulnerable: int
    final_infected: int
    time_to_10pct_s: Optional[float]
    time_to_50pct_s: Optional[float]
    time_to_95pct_s: Optional[float]
