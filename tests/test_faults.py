"""Unit and integration tests for the fault-injection subsystem."""

import pytest

from repro.faults import FaultPlan, Partition
from repro.net import ConstantLatency, Network, NodeAddress
from repro.sim import Simulator


# -- Partition ---------------------------------------------------------------


def two_group_partition(start=10.0, heal=20.0):
    return Partition.of([{0, 1}, {2, 3}], start, heal)


def test_partition_severs_cross_group_both_ways_inside_window():
    p = two_group_partition()
    assert p.severs(0, 2, 15.0)
    assert p.severs(2, 0, 15.0)


def test_partition_keeps_intra_group_traffic():
    p = two_group_partition()
    assert not p.severs(0, 1, 15.0)
    assert not p.severs(2, 3, 15.0)


def test_partition_inactive_outside_window():
    p = two_group_partition(start=10.0, heal=20.0)
    assert not p.severs(0, 2, 9.9)
    assert not p.severs(0, 2, 20.0)  # heal instant: traffic flows again


def test_partition_ignores_unlisted_hosts():
    p = two_group_partition()
    assert not p.severs(7, 0, 15.0)
    assert not p.severs(0, 7, 15.0)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.of([{0, 1}], 0.0, 1.0)  # one group is no partition
    with pytest.raises(ValueError):
        Partition.of([{0}, {0, 1}], 0.0, 1.0)  # overlapping groups
    with pytest.raises(ValueError):
        Partition.of([{0}, {1}], 5.0, 5.0)  # empty window


# -- FaultPlan verdicts ------------------------------------------------------


def test_plan_without_faults_always_delivers():
    plan = FaultPlan()
    assert plan.verdict(0, 1, 100.0) is None


def test_partition_verdict_tagged_and_counted():
    """The plan tags the drop; the network counts it (see
    ``test_network_counts_fault_drops_by_cause``)."""
    plan = FaultPlan().add_partition(two_group_partition())
    assert plan.verdict(0, 2, 15.0) == "partition"


# -- Network integration -----------------------------------------------------


def faulty_net(plan, hosts=4):
    sim = Simulator()
    net = Network(
        sim, ConstantLatency(num_hosts=hosts, one_way=0.05), fault_plan=plan
    )
    return sim, net


def test_network_counts_fault_drops_by_cause():
    plan = FaultPlan().add_partition(Partition.of([{0}, {1}], 0.0, 10.0))
    sim, net = faulty_net(plan)
    got = []
    net.register(NodeAddress(1), got.append)
    net.send(NodeAddress(0), NodeAddress(1), "x", size=64)
    sim.run()
    assert got == []
    assert net.dropped("partition") == 1
    assert net.accounting.dropped("partition") == 1


def test_network_delivers_again_after_heal():
    plan = FaultPlan().add_partition(Partition.of([{0}, {1}], 0.0, 10.0))
    sim, net = faulty_net(plan)
    got = []
    net.register(NodeAddress(1), got.append)
    sim.run(until=10.0)
    net.send(NodeAddress(0), NodeAddress(1), "late", size=64)
    sim.run()
    assert len(got) == 1
