"""Fault-plan edge cases: inverted and zero-duration partition
windows, and two partitions active at once."""

import pytest

from repro.faults import FaultPlan, Partition


def test_partition_heal_before_start_rejected():
    with pytest.raises(ValueError):
        Partition.of([{0}, {1}], 10.0, 5.0)
    with pytest.raises(ValueError):
        Partition.of([{0}, {1}], 10.0, 10.0)  # zero-duration window


# -- overlapping partitions --------------------------------------------------


def test_two_active_partitions_compose():
    """While both hold, either partition may sever a pair; after the
    first heals, only the second's cuts remain."""
    plan = (
        FaultPlan()
        .add_partition(Partition.of([{0}, {1, 2}], 10.0, 50.0))
        .add_partition(Partition.of([{0, 1}, {2}], 40.0, 80.0))
    )
    # t=45: both active. 0-1 cut by A, 1-2 cut by B, 0-2 cut by both.
    assert plan.verdict(0, 1, 45.0) == "partition"
    assert plan.verdict(1, 2, 45.0) == "partition"
    assert plan.verdict(0, 2, 45.0) == "partition"
    # t=60: only B active. 0-1 flows again, 1-2 still cut.
    assert plan.verdict(0, 1, 60.0) is None
    assert plan.verdict(1, 2, 60.0) == "partition"
    # t=85: all healed.
    assert plan.verdict(1, 2, 85.0) is None
