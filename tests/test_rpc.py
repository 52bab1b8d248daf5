"""Unit tests for the RPC layer: matching, timeouts, one-way, deferral."""

import pytest

from repro.chord.rpc import MIN_RPC_BYTES, RpcLayer
from repro.net import ConstantLatency, Network, NodeAddress
from repro.sim import Simulator


@pytest.fixture
def pair():
    sim = Simulator()
    net = Network(sim, ConstantLatency(num_hosts=4, one_way=0.05))
    a = RpcLayer(sim, net, NodeAddress(0), default_timeout_s=1.0)
    b = RpcLayer(sim, net, NodeAddress(1), default_timeout_s=1.0)
    a.start()
    b.start()
    return sim, net, a, b


def test_call_reply_roundtrip(pair):
    sim, _net, a, b = pair
    b.register("echo", lambda params, ctx: ctx.respond(params["x"] * 2))
    got = []
    a.call(b.address, "echo", {"x": 21}, on_reply=got.append)
    sim.run()
    assert got == [42]


def test_reply_latency_is_round_trip(pair):
    sim, _net, a, b = pair
    b.register("echo", lambda params, ctx: ctx.respond("ok"))
    times = []
    a.call(b.address, "echo", {}, on_reply=lambda r: times.append(sim.now))
    sim.run()
    assert times[0] == pytest.approx(0.10)


def test_timeout_fires_when_peer_gone(pair):
    sim, _net, a, _b = pair
    errors = []
    a.call(NodeAddress(2), "echo", {}, on_error=errors.append)
    sim.run()
    assert errors == ["timeout"]
    assert sim.now == pytest.approx(1.0)


def test_late_reply_after_timeout_ignored(pair):
    sim, _net, a, b = pair

    def slow(params, ctx):
        sim.schedule(5.0, ctx.respond, "too late")

    b.register("slow", slow)
    replies, errors = [], []
    a.call(b.address, "slow", {}, on_reply=replies.append, on_error=errors.append)
    sim.run()
    assert errors == ["timeout"]
    assert replies == []


def test_handler_fail_reaches_on_error(pair):
    sim, _net, a, b = pair
    b.register("boom", lambda params, ctx: ctx.fail("kaput"))
    errors = []
    a.call(b.address, "boom", {}, on_error=errors.append)
    sim.run()
    assert errors == ["kaput"]


def test_unknown_method_fails(pair):
    sim, _net, a, b = pair
    errors = []
    a.call(b.address, "nope", {}, on_error=errors.append)
    sim.run()
    assert errors and "no handler" in errors[0]


def test_deferred_reply(pair):
    sim, _net, a, b = pair

    def deferred(params, ctx):
        sim.schedule(0.2, ctx.respond, "later")

    b.register("deferred", deferred)
    got = []
    a.call(b.address, "deferred", {}, on_reply=got.append)
    sim.run()
    assert got == ["later"]


def test_double_respond_ignored(pair):
    sim, _net, a, b = pair

    def double(params, ctx):
        ctx.respond("first")
        ctx.respond("second")

    b.register("double", double)
    got = []
    a.call(b.address, "double", {}, on_reply=got.append)
    sim.run()
    assert got == ["first"]


def test_one_way_dispatches_without_reply(pair):
    sim, _net, a, b = pair
    seen = []
    b.register("note", lambda params, ctx: seen.append((params, ctx.one_way)))
    a.send_one_way(b.address, "note", {"v": 1})
    sim.run()
    assert seen == [({"v": 1}, True)]


def test_one_way_respond_is_noop(pair):
    sim, _net, a, b = pair
    b.register("note", lambda params, ctx: ctx.respond("pointless"))
    a.send_one_way(b.address, "note", {})
    sim.run()  # must not raise or deliver anything to a


def test_shutdown_cancels_pending_timers(pair):
    sim, _net, a, _b = pair
    errors = []
    a.call(NodeAddress(2), "x", {}, on_error=errors.append)
    a.shutdown()
    sim.run()
    assert errors == []  # no timeout callback after shutdown
    assert not a.alive


def test_cancel_suppresses_reply(pair):
    sim, _net, a, b = pair
    b.register("echo", lambda params, ctx: ctx.respond("ok"))
    got = []
    req = a.call(b.address, "echo", {}, on_reply=got.append)
    a.cancel(req)
    sim.run()
    assert got == []


def test_call_requires_started_layer():
    sim = Simulator()
    net = Network(sim, ConstantLatency(num_hosts=2))
    rpc = RpcLayer(sim, net, NodeAddress(0), 1.0)
    with pytest.raises(RuntimeError):
        rpc.call(NodeAddress(1), "x", {})


def test_duplicate_handler_rejected(pair):
    _sim, _net, a, _b = pair
    a.register("m", lambda p, c: None)
    with pytest.raises(ValueError):
        a.register("m", lambda p, c: None)


def test_min_rpc_bytes_accounted(pair):
    sim, net, a, b = pair
    b.register("echo", lambda params, ctx: ctx.respond("ok"))
    a.call(b.address, "echo", {}, category="lookup")
    sim.run()
    assert net.accounting.category_bytes("lookup") >= 2 * MIN_RPC_BYTES


# -- retransmission with exponential backoff ---------------------------------


def test_no_retransmit_by_default(pair):
    sim, _net, a, _b = pair
    a.call(NodeAddress(2), "x", {})
    sim.run()
    assert a.detector.retransmits == 0
    assert a.detector.timeouts == 1


def test_backoff_timeout_sequence():
    """Attempts time out at 1, 1+2, 1+2+4 with base 1.0 and factor 2."""
    sim = Simulator()
    net = Network(sim, ConstantLatency(num_hosts=4, one_way=0.05))
    a = RpcLayer(
        sim, net, NodeAddress(0), default_timeout_s=1.0,
        max_retransmits=2, backoff_factor=2.0,
    )
    a.start()
    errors = []
    a.call(NodeAddress(2), "x", {}, on_error=errors.append)
    sim.run()
    assert errors == ["timeout"]
    assert sim.now == pytest.approx(7.0)
    assert a.detector.retransmits == 2
    assert a.detector.timeouts == 1  # only the final expiry counts


def test_retransmit_rescues_a_dropped_request():
    """A partition window eats the first send; the retransmission, sent
    after the heal, gets through.

    The same scenario without retransmits fails outright.
    """
    from repro.faults import FaultPlan, Partition

    def attempt(max_retransmits):
        sim = Simulator()
        plan = FaultPlan().add_partition(Partition.of([{0}, {1}], 0.0, 0.5))
        net = Network(
            sim, ConstantLatency(num_hosts=4, one_way=0.05), fault_plan=plan
        )
        a = RpcLayer(
            sim, net, NodeAddress(0), default_timeout_s=1.0,
            max_retransmits=max_retransmits,
        )
        b = RpcLayer(sim, net, NodeAddress(1), default_timeout_s=1.0)
        a.start()
        b.start()
        b.register("echo", lambda params, ctx: ctx.respond("ok"))
        replies, errors = [], []
        a.call(
            b.address, "echo", {},
            on_reply=replies.append, on_error=errors.append,
        )
        sim.run()
        return replies, errors

    replies, errors = attempt(max_retransmits=2)
    assert replies == ["ok"] and errors == []
    replies, errors = attempt(max_retransmits=0)
    assert replies == [] and errors == ["timeout"]


def test_duplicate_reply_after_retransmit_ignored(pair):
    sim, _net, a, b = pair
    a.max_retransmits = 2
    calls = []

    def slow(params, ctx):
        calls.append(sim.now)
        sim.schedule(1.5, ctx.respond, "ok")  # longer than the timeout

    b.register("slow", slow)
    replies = []
    a.call(b.address, "slow", {}, on_reply=replies.append)
    sim.run()
    assert len(calls) == 2  # original + one retransmission arrived
    assert replies == ["ok"]  # the second reply was dropped on the floor


def test_backoff_jitter_is_deterministic():
    import random as _random

    def final_time(seed):
        sim = Simulator()
        net = Network(sim, ConstantLatency(num_hosts=4, one_way=0.05))
        a = RpcLayer(
            sim, net, NodeAddress(0), default_timeout_s=1.0,
            max_retransmits=2, backoff_factor=2.0, backoff_jitter=0.2,
            jitter_rng=_random.Random(seed),
        )
        a.start()
        a.call(NodeAddress(2), "x", {})
        sim.run()
        return sim.now

    assert final_time(5) == final_time(5)
    assert final_time(5) != final_time(6)
    assert 0.8 * 7.0 < final_time(5) < 1.2 * 7.0


def test_exponential_backoff_retransmits_less_than_fixed_interval():
    """With a slow responder, exponential backoff issues measurably fewer
    duplicate retransmissions than fixed-interval retry while still
    completing the calls."""

    def scenario(backoff_factor):
        sim = Simulator()
        net = Network(sim, ConstantLatency(num_hosts=4, one_way=0.05))
        a = RpcLayer(
            sim, net, NodeAddress(0), default_timeout_s=1.0,
            max_retransmits=4, backoff_factor=backoff_factor,
        )
        b = RpcLayer(sim, net, NodeAddress(1), default_timeout_s=1.0)
        a.start()
        b.start()
        # Responds well after the base timeout: a fixed-interval caller
        # keeps hammering while waiting, backoff holds off.
        b.register("slow", lambda params, ctx: sim.schedule(2.4, ctx.respond, "ok"))
        replies = []

        def issue():
            a.call(b.address, "slow", {}, on_reply=replies.append)

        for i in range(40):
            sim.schedule(i * 20.0, issue)
        sim.run()
        return a.detector, len(replies)

    fixed, fixed_ok = scenario(backoff_factor=1.0)
    exponential, exp_ok = scenario(backoff_factor=2.0)
    assert exp_ok >= 38 and fixed_ok >= 38  # retries mask the loss
    assert exponential.retransmits < fixed.retransmits
    assert exponential.calls == fixed.calls == 40


# -- shutdown notification ---------------------------------------------------


def test_shutdown_silent_by_default_matches_crash_semantics(pair):
    sim, _net, a, _b = pair
    errors = []
    a.call(NodeAddress(2), "x", {}, on_error=errors.append)
    a.shutdown()
    sim.run()
    assert errors == []


def test_shutdown_notify_local_errors_fires_shutdown(pair):
    sim, _net, a, _b = pair
    errors = []
    a.call(NodeAddress(2), "x", {}, on_error=errors.append)
    a.call(NodeAddress(3), "y", {}, on_error=errors.append)
    a.shutdown(notify_local_errors=True)
    assert errors == ["shutdown", "shutdown"]  # synchronous
    assert not a.alive
    sim.run()
    assert errors == ["shutdown", "shutdown"]  # and no late timeouts


def test_shutdown_notify_callbacks_see_dead_layer(pair):
    sim, _net, a, _b = pair
    observed = []
    a.call(
        NodeAddress(2), "x", {},
        on_error=lambda err: observed.append((err, a.alive)),
    )
    a.shutdown(notify_local_errors=True)
    assert observed == [("shutdown", False)]


# -- failure-detector statistics ---------------------------------------------


def test_detector_suspects_after_timeout_and_records_recovery(pair):
    sim, _net, a, b = pair
    dead = NodeAddress(2)
    a.call(dead, "x", {})
    sim.run()
    assert a.detector.suspected == [dead]
    assert a.detector.peers[dead].timeouts == 1

    # The peer comes back: the next reply clears the suspicion and
    # records how long it lasted.
    c = RpcLayer(sim, _net, dead, default_timeout_s=1.0)
    c.start()
    c.register("x", lambda params, ctx: ctx.respond("back"))
    replies = []
    a.call(dead, "x", {}, on_reply=replies.append)
    sim.run()
    assert replies == ["back"]
    assert a.detector.suspected == []
    assert len(a.detector.recovery_times_s) == 1
    assert a.detector.recovery_times_s[0] == pytest.approx(
        sim.now - 1.0
    )
    assert a.detector.peers[dead].last_recovery_s == pytest.approx(
        sim.now - 1.0
    )


def test_detector_suspect_after_threshold(pair):
    sim, _net, a, _b = pair
    a.detector.suspect_after = 2
    dead = NodeAddress(2)
    a.call(dead, "x", {})
    sim.run()
    assert a.detector.suspected == []  # one timeout is not enough
    a.call(dead, "x", {})
    sim.run()
    assert a.detector.suspected == [dead]
