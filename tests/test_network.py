"""Unit tests for the message fabric: delivery, drops, accounting."""

import pytest

from repro.net import (
    ByteAccounting,
    ConstantBandwidth,
    ConstantLatency,
    HEADER_BYTES,
    Network,
    NodeAddress,
)
from repro.faults import FaultPlan, Partition
from repro.sim import Simulator


def make_net(bandwidth=None, one_way=0.05, hosts=4, severed_until=None):
    """A network; ``severed_until`` partitions host 0 from host 1 over
    ``[0, severed_until)``."""
    sim = Simulator()
    plan = None
    if severed_until is not None:
        plan = FaultPlan().add_partition(Partition.of([{0}, {1}], 0.0, severed_until))
    net = Network(
        sim,
        ConstantLatency(num_hosts=hosts, one_way=one_way),
        bandwidth_model=bandwidth,
        fault_plan=plan,
    )
    return sim, net


def test_delivery_after_latency():
    sim, net = make_net()
    a, b = NodeAddress(0), NodeAddress(1)
    got = []
    net.register(b, lambda m: got.append((sim.now, m.payload)))
    net.send(a, b, "hello", size=100)
    sim.run()
    assert got == [(0.05, "hello")]


def test_bandwidth_adds_serialization_delay():
    sim, net = make_net(bandwidth=ConstantBandwidth(bytes_per_second=1000))
    a, b = NodeAddress(0), NodeAddress(1)
    got = []
    net.register(b, lambda m: got.append(sim.now))
    net.send(a, b, "x", size=500)
    sim.run()
    assert got[0] == pytest.approx(0.05 + 0.5)


def test_message_to_unregistered_endpoint_dropped():
    sim, net = make_net()
    net.send(NodeAddress(0), NodeAddress(1), "x", size=64)
    sim.run()
    assert net.dropped_messages == 1


def test_message_to_dead_incarnation_dropped():
    sim, net = make_net()
    addr = NodeAddress(1)
    got = []
    net.register(addr, got.append)
    net.send(NodeAddress(0), addr, "one", size=64)
    sim.run()
    net.unregister(addr)
    net.send(NodeAddress(0), addr, "two", size=64)
    sim.run()
    assert len(got) == 1
    assert net.dropped_messages == 1


def test_new_incarnation_is_distinct_endpoint():
    sim, net = make_net()
    old = NodeAddress(1, 0)
    new = old.next_incarnation()
    got = []
    net.register(new, got.append)
    net.send(NodeAddress(0), old, "stale", size=64)
    sim.run()
    assert got == []


def test_double_registration_rejected():
    _sim, net = make_net()
    addr = NodeAddress(0)
    net.register(addr, lambda m: None)
    with pytest.raises(ValueError):
        net.register(addr, lambda m: None)


def test_host_slot_outside_model_rejected():
    _sim, net = make_net(hosts=2)
    with pytest.raises(ValueError):
        net.register(NodeAddress(5), lambda m: None)


def test_bytes_accounted_even_for_lost_messages():
    sim, net = make_net(severed_until=10.0)
    net.register(NodeAddress(1), lambda m: None)
    net.send(NodeAddress(0), NodeAddress(1), "x", size=100, category="lookup")
    sim.run()
    assert net.accounting.category_bytes("lookup") == 100


def test_minimum_size_is_header():
    sim, net = make_net()
    got = []
    net.register(NodeAddress(1), got.append)
    net.send(NodeAddress(0), NodeAddress(1), "x", size=1)
    sim.run()
    assert got[0].size == HEADER_BYTES


def test_accounting_by_category_and_op():
    acct = ByteAccounting()
    acct.record("lookup", 100, op_tag=7)
    acct.record("lookup", 50)
    acct.record("data", 200, op_tag=7)
    assert acct.category_bytes("lookup") == 150
    assert acct.category_bytes("data") == 200
    assert acct.bytes_for_op(7) == 300
    assert acct.bytes_for_op(99) == 0
    assert acct.total_bytes == 350
    assert acct.total_messages == 3
    assert acct.messages_by_category["lookup"] == 2


def test_accounting_reset():
    acct = ByteAccounting()
    acct.record("x", 10, op_tag=1)
    acct.reset()
    assert acct.total_bytes == 0
    assert acct.bytes_for_op(1) == 0


# -- cause-tagged drop counters ----------------------------------------------


def test_partition_drops_tagged_with_cause():
    sim, net = make_net(severed_until=10.0)
    net.register(NodeAddress(1), lambda m: None)
    net.send(NodeAddress(0), NodeAddress(1), "x", size=64)
    sim.run()
    assert net.dropped("partition") == 1
    assert net.dropped("dead-destination") == 0
    assert net.dropped_messages == 1


def test_dead_destination_drops_tagged_with_cause():
    sim, net = make_net()
    net.send(NodeAddress(0), NodeAddress(1), "x", size=64)
    sim.run()
    assert net.dropped("dead-destination") == 1
    assert net.dropped("partition") == 0


def test_causes_accumulate_independently():
    sim, net = make_net(severed_until=1.0)
    addr = NodeAddress(1)
    got = []
    net.register(addr, got.append)
    for i in range(100):
        # Half the sends fall inside the partition window.
        sim.schedule_at(i * 0.02, net.send, NodeAddress(0), addr, "x", 64)
    sim.run()
    net.unregister(addr)
    net.send(NodeAddress(0), addr, "x", size=64)
    sim.run()
    assert net.dropped("partition") == 50
    assert net.dropped("dead-destination") == 1
    assert net.dropped_messages == 51
    assert len(got) == 50


def test_accounting_mirrors_drop_causes():
    sim, net = make_net()
    net.send(NodeAddress(0), NodeAddress(1), "x", size=64)
    sim.run()
    assert net.accounting.dropped("dead-destination") == 1
    assert net.accounting.total_dropped == 1
    assert net.accounting.dropped_by_cause == {"dead-destination": 1}


def test_accounting_reset_clears_drop_causes():
    acct = ByteAccounting()
    acct.record_drop("partition")
    acct.reset()
    assert acct.total_dropped == 0
    assert acct.dropped("partition") == 0
