"""Adversarial object-vs-columnar equivalence for the computed events.

The columnar engine computes, instead of scheduling, every kernel event
whose outcome is already determined when it would be pushed (see the
rule table in :mod:`repro.chord.columnar`).  Each rule has a guard; the
cells here are built so that each guard *fails* at least once — and
check that it did — then hold the engine to the object graph's lookup
outcomes, event count and per-category bytes at every read point.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.stats import LookupStats
from repro.chord import columnar
from repro.chord.admission import AdmissionStats, NodeAdmission, ServicePolicy
from repro.chord.columnar import ColumnarEngine
from repro.chord.config import OverlayConfig
from repro.chord.lookup import LookupStyle
from repro.experiments.builders import build_live_ring
from repro.experiments.fig5_lookup_latency import Fig5Config, run_cell_instrumented
from repro.ids.idspace import IdSpace
from repro.ids.sections import VermeIdLayout
from repro.net.king import king_matrix
from repro.net.latency import MatrixLatency
from repro.net.network import Network
from repro.sim import RngRegistry, Simulator

BASE = OverlayConfig(space=IdSpace(64))


class _Cell:
    """One live cell on either engine, built in the drivers' order."""

    def __init__(
        self, engine, config, lifetime_s=1e9, interval_s=1.0, verme=False, nodes=48,
        admission=None,
    ):
        rngs = RngRegistry(11)
        self.sim = Simulator()
        king = king_matrix(
            num_hosts=nodes, mean_rtt_s=0.198, seed=rngs.stream("king").randrange(2**31)
        )
        # The columnar engine materialises rpc failure timers lazily, at
        # the request's arrival, which presumes a one-way latency below
        # the rpc timeout (true of every experiment's models); keep the
        # short-timeout cells inside that envelope.
        latency = MatrixLatency(np.minimum(king.matrix, 0.9 * config.rpc_timeout_s))
        self.network = Network(self.sim, latency)
        self.stats = LookupStats()
        layout = VermeIdLayout.for_sections(config.space, 8) if verme else None
        self.engine = build_live_ring(
            engine, self.sim, self.network, config, nodes, rngs, layout, admission
        )
        self.engine.start_churn(rngs.stream("churn"), lifetime_s)
        self.engine.start_workload(
            rngs.stream("workload"), LookupStyle.RECURSIVE, interval_s, self.stats, 0.0
        )

    def read(self):
        """Everything the engines must agree on at a quiescent point."""
        accounting = self.network.accounting
        return {
            "now": self.sim.now,
            "events": self.engine.logical_events(self.sim.now),
            "latencies": list(self.stats.latencies_s),
            "hops": list(self.stats.hops),
            "failures": self.stats.failures,
            "bytes": dict(accounting.bytes_by_category),
            "messages": dict(accounting.messages_by_category),
            "drops": dict(self.network.drops_by_cause),
        }


def _count_calls(obj, name, predicate=lambda *args: True):
    """Wrap ``obj.name`` (looked up at push time, so an instance
    attribute is seen) and count the calls ``predicate`` accepts."""
    inner = getattr(obj, name)
    hits = [0]

    def wrapper(*args):
        if predicate(*args):
            hits[0] += 1
        return inner(*args)

    setattr(obj, name, wrapper)
    return hits


def _advance(obj, col, until):
    obj.sim.run(until=until)
    col.sim.run(until=until)
    assert col.read() == obj.read()


def _compare(config, horizons, instrument=None, at_stop=None, **kwargs):
    """Run both engines through ``horizons`` and compare at each stop.
    ``instrument(engine)`` may wrap columnar-engine callbacks first to
    prove the scenario happened; returns the cell and its probe."""
    obj = _Cell("object", config, **kwargs)
    col = _Cell("columnar", config, **kwargs)
    probe = instrument(col.engine) if instrument is not None else None
    for until in horizons:
        _advance(obj, col, until)
        if at_stop is not None:
            at_stop(col)
    return col, probe


def _is_relay(dst, rparams):
    return dst != rparams[0][0]  # token = (initiator row, counter)


def test_relay_killed_while_reply_chain_in_flight():
    """death_at guard: a relay's crash lands between a reply's push and
    its hop, so that hop must be a real (dropped) ``_ev_res``."""

    def instrument(engine):
        return _count_calls(
            engine, "_ev_res",
            lambda dst, rparams, *_: not engine.alive[dst] and _is_relay(dst, rparams),
        )

    col, dead_relay_hops = _compare(BASE, [120.0], instrument, lifetime_s=20.0)
    assert dead_relay_hops[0] > 0
    assert col.engine.elided > 0
    assert col.stats.failures > 0


def test_ack_to_a_caller_that_crashes_first_is_a_counted_drop():
    """death_at guard on info-free replies: a per-hop ack or notify/ping
    reply whose caller's crash is due by its arrival is queued, so the
    ``dead-destination`` drop it is in the object engine is counted
    here too (``read`` compares the drop counters)."""

    def instrument(engine):
        return _count_calls(engine, "_ev_noop", lambda row: not engine.alive[row])

    col, dead_caller_acks = _compare(BASE, [120.0], instrument, lifetime_s=20.0)
    assert dead_caller_acks[0] > 0
    assert col.engine.elided > 0


def test_late_ack_fork_shares_a_token_between_two_chains():
    """fork flag: with the rpc timeout below many pair RTTs the sender
    re-routes while the slow hop routes on; both chains' results race
    back through shared relays, so nothing of theirs may be computed."""
    config = replace(BASE, rpc_timeout_s=0.15)

    def instrument(engine):
        return _count_calls(
            engine, "_ev_res",
            lambda dst, rparams, *_: rparams[0] in engine._forked
            and engine.alive[dst]
            and rparams[0] not in engine.lookups[dst]
            and rparams[0] not in engine.forwards[dst],
        )

    col, stale_second_results = _compare(config, [60.0], instrument)
    assert col.engine._forked
    assert stale_second_results[0] > 0  # the loser of a fork's race


def test_forward_state_gc_shorter_than_the_reply_path():
    """GC-expiry guard, and the timeout calendar firing for real: relay
    state expires before the reply returns, the reply goes stale there,
    the initiator's attempt timeout fires and retries."""
    config = replace(BASE, pending_route_gc_s=0.25, lookup_timeout_s=2.0)

    def instrument(engine):
        return (
            _count_calls(
                engine, "_ev_res",
                lambda dst, rparams, *_: engine.alive[dst]
                and _is_relay(dst, rparams)
                and rparams[0] not in engine.forwards[dst],
            ),
            _count_calls(engine._lt, "_fire"),
        )

    col, (expired_relay_hops, timeouts) = _compare(config, [60.0], instrument)
    assert expired_relay_hops[0] > 0
    assert timeouts[0] > 0
    assert col.stats.failures > 0  # the same path, so retries exhaust


def _slow_service():
    """A per-node admission factory that queues every DHT forward
    behind a 2/s virtual server, so attempts queue past their timeout."""
    return NodeAdmission(ServicePolicy(service_rate_per_s=2.0), AdmissionStats())


@pytest.mark.parametrize(
    "cell",
    [{"lifetime_s": 20.0}, {"admission": _slow_service}],
    ids=["churn", "admission"],
)
def test_compacted_calendars_keep_every_live_timer(monkeypatch, cell):
    """Calendar compaction drops only dead entries: with the compaction
    threshold at four entries, the short-timeout churn and admission
    cells compact hundreds of times, fire attempt timeouts for real
    and still match the object graph.  Compacting *after* the append
    fails here: a fresh attempt timeout reads dead until ``_attempt``
    sets its token, so it would be dropped and never fire."""
    monkeypatch.setattr(columnar, "_CALENDAR_COMPACT_MIN", 4)
    compactions = [0]
    compact = columnar._Calendar._compact

    def counting(self):
        compactions[0] += 1
        compact(self)

    monkeypatch.setattr(columnar._Calendar, "_compact", counting)
    config = replace(BASE, lookup_timeout_s=2.0)

    def instrument(engine):
        return _count_calls(engine._lt, "_fire")

    col, timeouts = _compare(config, [30.0, 60.0], instrument, **cell)
    assert compactions[0] > 100
    assert timeouts[0] > 0
    assert col.stats.failures > 0


def test_calendars_hold_at_most_twice_their_live_timers(monkeypatch):
    """Structural pin on the live engine's working set: in a 1k fig5
    run, neither calendar ever holds more than ``max(C, 2 x live) + 1``
    entries (C the compaction threshold; the one is the attempt timeout
    that reads dead until ``_attempt`` sets its token).  Without
    compaction a calendar holds every timer armed in the last
    ``lookup_timeout_s`` / ``pending_route_gc_s``, live or dead."""
    adds = [0]
    add = columnar._Calendar.add

    def checked(self, expire, seq, item):
        add(self, expire, seq, item)
        adds[0] += 1
        held = len(self._queue)
        bound = columnar._CALENDAR_COMPACT_MIN + 1
        if held > bound:
            live = sum(not self._dead(entry[2]) for entry in self._queue)
            bound = max(bound, 2 * live + 1)
        assert held <= bound

    monkeypatch.setattr(columnar._Calendar, "add", checked)
    config = Fig5Config(num_nodes=1000, duration_s=60.0, warmup_s=30.0, engine="columnar")
    row, _ = run_cell_instrumented(config, "verme", 600.0)
    assert row.lookups > 0
    assert adds[0] > 20 * columnar._CALENDAR_COMPACT_MIN


def test_horizon_cuts_reply_chains_and_later_runs_resume_them():
    """horizon guard: stop every 70 ms, so chains are cut mid-way; the
    queued hop resumes the walk in the next ``run()``, and every stop
    is a read point where bytes and events already agree."""
    cut = [0]

    def at_stop(col):
        cut[0] += sum(
            1
            for entry in col.sim._queue
            if len(entry) == 4
            and getattr(entry[2], "__name__", "") == "_ev_res"
            and _is_relay(entry[3][0], entry[3][1])
        )

    horizons = [30.0 + 0.07 * i for i in range(120)]
    col, _ = _compare(BASE, horizons, at_stop=at_stop, verme=True, lifetime_s=300.0)
    assert cut[0] > 0
    assert col.engine.elided > 0


def test_unbounded_run_elides_nothing_then_bounded_run_resumes():
    """``run(until=None)`` has no horizon to reason against: every event
    is queued.  A bounded run afterwards picks the computed paths up
    mid-flight, and the object graph agrees at the join."""
    obj = _Cell("object", BASE, lifetime_s=40.0)
    col = _Cell("columnar", BASE, lifetime_s=40.0)
    col.sim.run(max_events=30_000)
    engine = col.engine
    assert engine.elided == 0 and not engine._future_elided
    stop = col.sim.now
    # The first call also finishes the timestamp max_events stopped in.
    for until in (stop, stop + 5.0, stop + 30.0):
        _advance(obj, col, until)
    assert engine.elided > 0


@pytest.mark.parametrize("verme, pin", [(False, 0.55), (True, 0.565)])
def test_physical_events_stay_a_pinned_fraction_of_logical(verme, pin):
    """The computed classes stay computed: at the fig5-120 smoke cell
    (paper rates) the kernel fires 0.476 (Chord) / 0.493 (Verme) events
    per logical one — it was 0.854 / 0.870 with only acks elided.  The
    pins leave ~15% headroom for protocol changes; re-materialising
    reply hops or ``_ev_done`` lands above them."""
    col = _Cell(
        "columnar", BASE, lifetime_s=1800.0, interval_s=30.0, verme=verme, nodes=120
    )
    col.sim.run(until=300.0)
    ratio = col.sim.events_processed / col.engine.logical_events(300.0)
    assert ratio < pin, ratio


@pytest.mark.parametrize("slow, handler", [("predecessor", "_ev_req"), ("far", "_ev_fwd")])
def test_request_at_or_past_its_rpc_deadline_raises(slow, handler):
    """Failure timers are materialised when a request arrives, which
    presumes one-way delay < rpc timeout.  A request over a pair at or
    above the timeout must stop the run, naming the delay and the
    timeout, instead of scheduling its timer in the past — a
    maintenance rpc (row 0's probe of its predecessor) and a lookup
    hop (row 0's finger-fix lookups, which leave through far fingers)."""
    rngs = RngRegistry(11)
    sim = Simulator()
    nodes = 16
    latency = MatrixLatency(np.full((nodes, nodes), 0.05))
    engine = ColumnarEngine(sim, Network(sim, latency), BASE)
    engine.build(nodes, rngs)
    # Latency rows are read lazily, so the matrix can still change here.
    src = engine.host[0]
    pred, succ = engine.host[engine.preds[0][0][1]], engine.host[engine.succs[0][0][1]]
    if slow == "predecessor":
        latency.matrix[src, pred] = 2 * BASE.rpc_timeout_s
    else:  # every pair out of row 0 but the ones its maintenance rpcs use
        latency.matrix[src, :] = 2 * BASE.rpc_timeout_s
        latency.matrix[src, [pred, succ]] = 0.05
    with pytest.raises(ValueError, match=r"took 1 s one way.* timeout of 0\.5 s") as exc:
        sim.run(until=BASE.finger_interval_s)
    assert exc.traceback[-2].name == handler
