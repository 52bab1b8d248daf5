"""Per-node failure-detector statistics.

The RPC timeout *is* the failure detector ("every time a node tried to
contact a node that had failed it chose another neighbor", paper
§7.1.2).  :class:`FailureDetectorStats` records what that detector
observed at one node: calls issued, retransmissions, timeouts, which
peers are currently suspected, and — when a suspected peer answers
again — how long the suspicion lasted.  Experiments aggregate these
across a ring to characterise detector behaviour under partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.addressing import NodeAddress


@dataclass
class PeerRecord:
    """Detector state for one remote endpoint."""

    timeouts: int = 0
    suspected_at: Optional[float] = None
    last_recovery_s: Optional[float] = None


@dataclass
class FailureDetectorStats:
    """One node's view of its peers' health, fed by the RPC layer.

    A peer becomes *suspected* after ``suspect_after`` consecutive call
    timeouts and is cleared (recording the suspicion duration as a
    recovery time) by the next successful reply.
    """

    suspect_after: int = 1
    calls: int = 0
    timeouts: int = 0
    retransmits: int = 0
    peers: Dict[NodeAddress, PeerRecord] = field(default_factory=dict)
    recovery_times_s: List[float] = field(default_factory=list)

    def record_call(self) -> None:
        self.calls += 1

    def record_retransmit(self, dst: NodeAddress) -> None:
        self.retransmits += 1

    def record_timeout(self, dst: NodeAddress, now: float) -> None:
        self.timeouts += 1
        record = self.peers.setdefault(dst, PeerRecord())
        record.timeouts += 1
        if record.suspected_at is None and record.timeouts >= self.suspect_after:
            record.suspected_at = now

    def record_reply(self, dst: NodeAddress, now: float) -> None:
        record = self.peers.get(dst)
        if record is None:
            return
        if record.suspected_at is not None:
            record.last_recovery_s = now - record.suspected_at
            self.recovery_times_s.append(record.last_recovery_s)
            record.suspected_at = None
        record.timeouts = 0

    @property
    def suspected(self) -> List[NodeAddress]:
        """Peers currently considered failed, in insertion order."""
        return [
            addr
            for addr, record in self.peers.items()
            if record.suspected_at is not None
        ]
