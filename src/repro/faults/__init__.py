"""Deterministic fault injection: scheduled partitions and
failure-detector statistics."""

from .detector import FailureDetectorStats, PeerRecord
from .plan import CAUSE_PARTITION, FaultPlan, FaultPlanStats, Partition

__all__ = [
    "CAUSE_PARTITION",
    "FailureDetectorStats",
    "FaultPlan",
    "FaultPlanStats",
    "Partition",
    "PeerRecord",
]
