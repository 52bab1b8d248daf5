"""Scheduled network partitions.

A :class:`FaultPlan` is consulted by :meth:`repro.net.network.Network.send`
once per message and returns its verdict: ``None`` to deliver, or the
drop-cause tag the network counts.  A plan holds :class:`Partition`
windows — host groups that cannot reach each other between a scheduled
onset and heal time.  Verdicts depend only on the hosts and the clock,
so a plan draws no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

#: The drop-cause tag a plan attaches to a verdict (the network counts
#: drops under it, next to its own "dead-destination").
CAUSE_PARTITION = "partition"


@dataclass(frozen=True)
class Partition:
    """Host groups mutually unreachable during ``[start_s, heal_s)``.

    Hosts absent from every group keep full connectivity (useful for
    observers and for partitioning only a subset of the population);
    traffic within one group is unaffected.
    """

    groups: Tuple[FrozenSet[int], ...]
    start_s: float
    heal_s: float

    def __post_init__(self) -> None:
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        if self.heal_s <= self.start_s:
            raise ValueError("heal time must be after onset")
        seen: set = set()
        for group in self.groups:
            if seen & group:
                raise ValueError("partition groups must be disjoint")
            seen |= group

    @staticmethod
    def of(
        groups: Iterable[Iterable[int]], start_s: float, heal_s: float
    ) -> "Partition":
        return Partition(
            tuple(frozenset(g) for g in groups), start_s, heal_s
        )

    def _group_of(self, host: int) -> Optional[int]:
        for i, group in enumerate(self.groups):
            if host in group:
                return i
        return None

    def severs(self, src_host: int, dst_host: int, now: float) -> bool:
        if not self.start_s <= now < self.heal_s:
            return False
        a = self._group_of(src_host)
        if a is None:
            return False
        b = self._group_of(dst_host)
        return b is not None and a != b


@dataclass
class FaultPlanStats:
    """What the plan actually did (observability for experiments)."""

    drops_by_cause: Dict[str, int] = field(default_factory=dict)

    @property
    def total_drops(self) -> int:
        return sum(self.drops_by_cause.values())

    def _count_drop(self, cause: str) -> None:
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1


class FaultPlan:
    """A deterministic partition schedule for one network."""

    def __init__(self) -> None:
        self.partitions: List[Partition] = []
        self.stats = FaultPlanStats()

    def add_partition(self, partition: Partition) -> "FaultPlan":
        """Schedule ``partition``; returns the plan (chainable)."""
        self.partitions.append(partition)
        return self

    def verdict(self, src_host: int, dst_host: int, now: float) -> Optional[str]:
        """The drop cause for one message, or ``None`` to deliver;
        called by ``Network.send``."""
        for partition in self.partitions:
            if partition.severs(src_host, dst_host, now):
                self.stats._count_drop(CAUSE_PARTITION)
                return CAUSE_PARTITION
        return None
