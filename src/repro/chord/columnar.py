"""Flat-state live-protocol engine: fig5/6/7 at 100k+ live nodes.

The object-graph :class:`~repro.chord.node.ChordNode` spends most of its
time allocating: a ``Message``, an ``RpcContext``, a ``_Pending`` record,
dict-shaped request params and reply payloads, and a couple of closures
per routed message.  This module replays the *same* discrete-event
schedule with none of that: node state lives in parallel per-row arrays
(one row per node incarnation), routing entries are ``(node_id, row)``
int pairs, request/reply payloads are tuples, and every protocol event
is pushed straight into the kernel's heap as a raw ``(time, seq,
callback, args)`` entry.

Equivalence argument (tested bit-for-bit in
``tests/test_fig567_columnar_equivalence.py``):

* **Same kernel.**  There is no second scheduler: the engine pushes into
  ``Simulator._queue`` and burns sequence numbers from
  ``Simulator._next_seq`` at exactly the points the object engine
  allocates them (RPC failure timer before message send, ack before GC
  registration, reschedule after a periodic callback, ...) — computed
  reply hops, last bullet, are the one exception.  Ordering and
  tie-breaking are therefore identical by construction.
* **Same randomness.**  Every ``random.Random`` draw (node ids, jitter,
  churn lifetimes, workload keys) happens on the same named registry
  stream, in the same order, as the object engine.
* **Same bytes.**  Message sizes and accounting categories are computed
  from the same constants at the same protocol points, including the
  quirk that error results are always accounted under the default
  ``"lookup"`` category.
* **Same latencies, no pair memo.**  A request computes both one-way
  delays of its pair at once and carries the reverse one to its reply
  (per-hop ack, maintenance reply, and via the forward state the
  result relayed back upstream); the values are the latency model's,
  bit for bit, and the engine holds no per-pair cache.
* **Compute, don't schedule.**  A kernel event whose outcome is already
  determined when it would be pushed is not queued: its seq is burned
  and its bytes accounted at the push, and it is tallied so that
  :meth:`ColumnarEngine.logical_events` still reports the object
  engine's exact event count.  Each rule is one guard over plain state;
  where the guard fails, the same function queues the real event:

  ===================  ==============================  ====================
  event                computed while (guard)          counted in
  ===================  ==============================  ====================
  timer the object     it pops dead (stabilize or      ``phantom`` (a
  engine cancels       finger timer / rpc failure      kernel event that
                       timer of a crashed row; the     is no logical one)
                       armed head of a ``_Calendar``)
  per-hop ack,         it arrives before the rpc       ``elided``, or
  notify/ping reply    deadline (delivery only         ``_future_elided``
                       cancels the failure timer) and  past the horizon
                       before the caller's crash
                       (``death_at``; else it is a
                       counted drop)
  lookup attempt       the lookup finished before a    nothing (the object
  timeout              sweep reached it (constant      engine cancelled
                       delay: FIFO ``_Calendar``)      it)
  forward-state GC     the reply passed back through   nothing (cancelled
  of a relay           before a sweep reached it       there too)
  either of the two    dead when ``add`` finds the     nothing (dropped
  above, held dead     deque at its limit (compacted   from memory, never
  in its calendar      before the append: a fresh      queued)
                       attempt timeout reads dead
                       until ``_attempt`` sets the
                       lookup's token)
  forward-state GC     token unforked, so nothing      ``elided`` /
  of the last node     can observe the entry again;    ``_future_elided``;
                       row's ``death_at`` is later     nothing if the crash
                                                       comes first
  ``route_result``     token unforked; next relay is   ``elided`` per hop
  relay hop            not the initiator, outlives     (same seq, bytes and
                       the hop (``death_at``), still   float additions as
                       holds the entry (GC expiry),    the relay event)
                       hop is within the horizon
  ``_ev_done``         ``_finish`` is the last act of  ``elided``
                       ``_ev_res`` and nothing queued
                       shares ``now``
  ===================  ==============================  ====================

  All of it needs a run horizon: under ``run(until=None)`` (or outside
  ``run``) every event is queued.  A token is *forked* at the one place
  a second chain can be born — a late per-hop ack, after which the
  sender's failure timer re-routes while the slow hop routes on.

  What stays equal, and when: byte and message totals are equal to the
  object engine's at quiescent read points — after ``run()`` returns,
  and at a lookup's completion for its own ``op_tag`` — not between
  them, because a computed hop is accounted at the push.  Each computed
  hop's ``(time, row, bytes)`` is a local of the walk in
  ``_send_result``, so spans for it remain derivable.

  The one residual assumption: a computed reply's last, queued hop gets
  its seq earlier than the object engine allocates it.  Seq only breaks
  ties between equal timestamps, and co-travelling messages keep their
  relative order by construction (they are computed in push order), so
  event order is identical unless two *independent* float latency sums
  collide exactly.  The equivalence and golden suites have never
  observed one.

The protocol rules themselves are not mirrored here: both engines call
the one copy of each in :mod:`repro.chord.rules`.  What the engine does
not do is one table, :data:`UNSUPPORTED`.

The bootstrap (successor/predecessor/finger fill for the initial
converged ring) takes its finger owners from the static overlay
(:meth:`~repro.overlay.snapshot.StaticOverlay.finger_owners_np`, one
matrix ``searchsorted`` for all nodes), with the overlay's scalar form
for id spaces wider than 64 bits.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from collections import deque
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.stats import LookupStats
from ..ids.draws import unique_id
from ..ids.sections import VermeIdLayout
from ..net.message import (
    ADDR_BYTES,
    CERT_BYTES,
    ID_BYTES,
    SEALED_OVERHEAD_BYTES,
    entry_bytes,
)
from ..net.network import CAUSE_DEAD, Network
from ..obs import OBS
from ..overlay.snapshot import StaticOverlay, VermeStaticOverlay
from ..sim import RngRegistry, Simulator, derive_seed
from ..verme.fingers import is_verme_finger_target, verme_finger_target
from .config import OverlayConfig
from .lookup import LookupPurpose, LookupStyle
from .rpc import MIN_RPC_BYTES
from .rules import (
    entries_for_key,
    finger_entry_allowed,
    first_maintained_finger,
    merge_neighbors,
    purpose_error,
    rejoin_contact,
    remove_finger_ref,
    remove_ref,
    route_candidates,
    route_next,
    stabilize_candidates,
)
from .state import NodeInfo

#: What this engine does not do (feature -> wording), each refusal raised
#: from here; the object engine does it all (docs/architecture.md).
UNSUPPORTED = {
    "fault plans": "fault plans (repro.faults partitions)",
    "rpc retransmits": "rpc retransmits (OverlayConfig.rpc_max_retransmits)",
    "node handles": "node objects for a driver to crash and join: non-exponential "
    "or scripted churn, the interleaving stress harness (no node factory)",
    "trace spans": "trace spans: rpc, lookup and DHT spans, cause-tagged drops",
    "metrics": "run-time metrics: the lookup.* and rpc.* families",
}


def unsupported(feature: str) -> ValueError:
    """The refusal for one :data:`UNSUPPORTED` row."""
    return ValueError(f"the columnar engine does not support {UNSUPPORTED[feature]}")


# Lookup styles / purposes: the repro.chord.lookup enum members, bound
# to module names for the routing hot path (compared with ``is``).
_REC = LookupStyle.RECURSIVE
_TRANS = LookupStyle.TRANSITIVE

_P_JOIN = LookupPurpose.JOIN
_P_FINGER = LookupPurpose.FINGER
_P_DHT = LookupPurpose.DHT

# Initiator-side lookup kinds (what _ev_done dispatches on).
_K_WORKLOAD = 0
_K_JOIN = 1
_K_REJOIN = 2
_K_FINGER = 3
_K_CB = 4

# Maintenance RPC kinds.
_M_STAB = 0  # get_neighbors from the stabilize loop (content reply)
_M_PRED = 1  # get_neighbors from the predecessor probe (content reply)
_M_PING = 2  # ping predecessor probe (info-free reply)
_M_NOTIFY = 3  # notify (info-free reply)

_NO_EXCLUDE: frozenset = frozenset()

_WORST_CASE_BANDWIDTH = 1e4  # bytes/s; mirrors ChordNode._WORST_CASE_BANDWIDTH

#: A ``_Calendar`` is compacted when it reaches ``max(this, 2 x live
#: entries at the last compaction)`` entries: O(1) amortised per add.
_CALENDAR_COMPACT_MIN = 1024


@contextmanager
def frozen_gc():
    """Run a simulation with the current heap frozen out of cyclic GC.

    A built engine holds tens of millions of long-lived, effectively
    acyclic objects (state arrays, routing entries, the pending-event
    queue), and every generation-2 collection rescans them all: at 100k
    rows the collector accounts for roughly half of wall time.
    Freezing moves the built heap into the permanent generation and a
    raised gen-0 threshold keeps the young-object churn of the event
    loop from triggering collections every few hundred allocations.
    The collector stays *enabled* — cycle garbage created during the
    run is still reclaimed, just in larger batches — and thresholds and
    the frozen heap are restored on exit, so tests that run many cells
    in one process do not accumulate permanent objects.

    There is deliberately no ``gc.collect()`` before the freeze: a full
    collection of a freshly built ring finds next to nothing (the build
    makes no cycles) yet costs ~40 ms per 1k rows inside the timed run,
    and skipping it moved neither run time after the freeze nor peak
    RSS (measured on ``fig5_churn_1k`` and ``ring_scale_10k``).
    """
    gc.freeze()
    old = gc.get_threshold()
    gc.set_threshold(500_000, 100, 100)
    try:
        yield
    finally:
        gc.set_threshold(*old)
        gc.unfreeze()


class _Lookup:
    """Initiator-side pending lookup (mirrors node._PendingLookup)."""

    __slots__ = (
        "row",
        "key",
        "style",
        "purpose",
        "category",
        "op_tag",
        "meta",
        "extra",
        "started_at",
        "first_hop",
        "attempts",
        "token",
        "failed",
        "kind",
        "k",
        "done_cb",
    )


class _Calendar:
    """Constant-delay timers as one FIFO behind one chained kernel event.

    A constant delay makes expirations FIFO, so instead of one heap
    entry per timer the engine keeps ``(expire, seq, item)`` in a deque
    and chains a single sweep event through it, re-using each entry's
    burned seq so ``(time, seq)`` of any timer that actually fires
    matches the object kernel exactly.  ``dead(item)`` says the object
    engine cancelled the timer; dead stays dead, so the sweep drops dead
    entries at the head without scheduling anything (the object kernel
    pops their cancelled handles silently).
    Only an entry that dies *after* the sweep was armed for it costs a
    kernel event, counted as a phantom.

    Most entries die long before they reach the head (a forward's GC
    timer dies when the reply passes back; an attempt timeout when the
    lookup finishes), so ``add`` compacts the deque once it reaches a
    limit: every dead entry goes but the armed head, whose ``(expire,
    seq)`` the queued sweep event carries.  The limit then becomes
    ``max(_CALENDAR_COMPACT_MIN, 2 x kept)``, so the deque holds at most
    about twice its live entries.  Compaction runs *before* the new
    entry is appended, because "dead stays dead" has one exception: an
    attempt timeout is armed before ``_attempt`` sets the lookup's
    token, so the entry just added reads dead until that call returns.
    """

    __slots__ = ("_engine", "_dead", "_fire", "_queue", "_armed", "_limit")

    def __init__(self, engine: "ColumnarEngine", dead, fire) -> None:
        self._engine = engine
        self._dead = dead
        self._fire = fire
        self._queue: deque = deque()
        self._armed = False
        self._limit = _CALENDAR_COMPACT_MIN

    def add(self, expire: float, seq: int, item) -> None:
        queue = self._queue
        if len(queue) >= self._limit:
            self._compact()
        queue.append((expire, seq, item))
        if not self._armed:
            self._armed = True
            sim = self._engine._sim
            heapq.heappush(sim._queue, (expire, seq, self._sweep, ()))
            sim._live += 1

    def _sweep(self) -> None:
        # Fires with the head entry's exact (expire, seq).
        queue = self._queue
        dead = self._dead
        item = queue.popleft()[2]
        if dead(item):
            self._engine.phantom += 1
        else:
            self._fire(item)
        while queue and dead(queue[0][2]):
            queue.popleft()
        if queue:
            head = queue[0]
            sim = self._engine._sim
            heapq.heappush(sim._queue, (head[0], head[1], self._sweep, ()))
            sim._live += 1
        else:
            self._armed = False

    def _compact(self) -> None:
        # In place: a sweep whose fire callback adds (a retried attempt
        # re-arms its timeout) still holds this deque.  A deque that has
        # reached the limit is non-empty, so it has an armed head.
        queue = self._queue
        dead = self._dead
        head = queue.popleft()
        kept = [entry for entry in queue if not dead(entry[2])]
        queue.clear()
        queue.append(head)
        queue.extend(kept)
        self._limit = max(_CALENDAR_COMPACT_MIN, 2 * len(queue))


class _Membership:
    """What the invariant checker sees: a sized population exposing a
    snapshot hook built from the engine's state arrays."""

    def __init__(self, engine: "ColumnarEngine") -> None:
        self._engine = engine

    def __len__(self) -> int:
        return len(self._engine.order)

    def ring_snapshot(self, now: float):
        return self._engine.ring_snapshot(now)


class ColumnarEngine:
    """Runs an entire Chord/Verme overlay out of per-row state arrays.

    One instance replaces the per-node object graph (nodes, RPC layers,
    timers, drivers).  Construction order mirrors the object path:
    ``build`` (id draws + instant bootstrap + timer starts), then
    ``start_churn``, then ``start_workload``, then ``run`` — the surface
    of the object engine's :class:`~repro.experiments.builders.BuiltRing`.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: OverlayConfig,
        layout: Optional[VermeIdLayout] = None,
    ) -> None:
        for feature, asked in (
            ("fault plans", network.fault_plan is not None),
            ("rpc retransmits", config.rpc_max_retransmits),
            ("trace spans", OBS.trace is not None),
            ("metrics", OBS.metrics is not None),
        ):
            if asked:
                raise unsupported(feature)
        self._sim = sim
        self._net = network
        self._config = config
        self._layout = layout
        self._verme = layout is not None

        space = config.space
        self._bits = space.bits
        self._mask = space.mask
        self._num_succ = config.num_successors
        self._pred_limit = config.num_predecessors if self._verme else 1
        self._stab_interval = config.stabilize_interval_s
        self._fing_interval = config.finger_interval_s
        self._rpc_to = config.rpc_timeout_s
        self._lookup_to = config.lookup_timeout_s
        self._retries = config.lookup_retries
        self._max_hops = config.max_lookup_hops
        self._gc_s = config.pending_route_gc_s
        self._rejoin_delay = 2.0  # ChurnDriver default
        self._entry_bytes = entry_bytes()
        self._req_extra = CERT_BYTES if self._verme else 0
        self._res_extra = SEALED_OVERHEAD_BYTES if self._verme else 0
        self._fwd_base = MIN_RPC_BYTES + ID_BYTES + self._req_extra
        # The overlay arguments of repro.chord.rules (None: Chord).
        self._shift = layout.section_bits if self._verme else None
        self._tmask = layout.num_types - 1 if self._verme else 0
        self._is_finger_target = partial(is_verme_finger_target, layout)

        # Accounting dicts, bound once (Network.send inlines the same).
        acct = network.accounting
        self._acct_b = acct.bytes_by_category
        self._acct_m = acct.messages_by_category
        self._acct_o = acct.bytes_by_op

        # Latency: matrix models get the same per-source row cache as
        # Network.send.  A request computes both directions of its pair
        # at once (``_pair``) and carries the reverse latency to its
        # reply — the per-hop ack, the maintenance reply, and through
        # the forward state to the result relay — so nothing is
        # memoised per pair: a model with a ``pair`` method (King
        # coordinates) gets one square root per request, and its own
        # memo is left to Network.send.
        model = network.latency_model
        self._lat_row_fn = getattr(model, "row", None)
        self._lat_rows: Optional[Dict[int, object]] = (
            {} if self._lat_row_fn is not None else None
        )
        self._lat_scalar = model.latency
        pair = getattr(model, "pair", None) if self._lat_rows is None else None
        if pair is not None:
            self._pair = pair  # shadows the two-call fallback below
            self._lat_scalar = lambda a, b: pair(a, b)[0]

        # Bandwidth: the engine mirrors Network.send's uncontended
        # path (delivery delay = latency + size / bandwidth when the
        # pair's bandwidth is non-zero).  ``None`` when the network has
        # no bandwidth model, so the fig5 hot path pays one attribute
        # load + ``is None`` per send.
        bw_model = network.bandwidth_model
        self._bw = bw_model.bandwidth if bw_model is not None else None

        # -- per-row (per node incarnation) state arrays ------------------
        self.node_id: List[int] = []
        self.host: List[int] = []
        self.inc: List[int] = []
        self.alive = bytearray()
        self.succs: List[List[tuple]] = []  # entries: (node_id, row)
        self.sver: List[int] = []
        self.preds: List[List[tuple]] = []
        self.pver: List[int] = []
        self.fingers: List[dict] = []  # {k: entry}, insertion-ordered
        self.fver: List[int] = []
        self.rejoin: List[List[int]] = []  # bootstrap contact rows
        self.rejoin_next: List[int] = []
        self.tok: List[int] = []  # per-row token counters
        self.lookups: List[dict] = []  # {token: _Lookup}
        self.forwards: List[dict] = []  # {token: (upstream_row, params, expire, up_lat)}
        # Routing-candidate cache (rules.route_candidates, keyed by the
        # fver/sver it was built from).
        self.cand_keys: List[Optional[list]] = []
        self.cand_infos: List[Optional[list]] = []
        self.cand_fver: List[int] = []
        self.cand_sver: List[int] = []
        # Serving-layer admission state (repro.chord.admission), one
        # slot per row; all-None = unlimited capacity, the paper's model.
        self.adm: List = []
        # Pre-drawn crash time, known from the moment _ev_kill is pushed
        # (inf while no kill is scheduled).
        self.death_at: List[float] = []

        self.order: List[int] = []  # population rows, insertion order
        self._used_ids: set = set()
        self._rngs: Optional[RngRegistry] = None
        self._id_rng = None

        # churn / workload
        self._churn_rng = None
        self._mean_lifetime = 0.0
        self.deaths = 0
        self.joins = 0
        self.failed_joins = 0
        self._wl_rng = None
        self._wl_style = _REC
        self._wl_interval = 30.0
        self._stats: Optional[LookupStats] = None
        self._wl_gen = None  # optional repro.workload.LookupGenerator
        self._adm_factory = None  # per-row NodeAdmission factory

        # logical event bookkeeping
        self.elided = 0  # invisible replies that would fire <= horizon
        self.phantom = 0  # queued stand-ins for object-cancelled events
        self._future_elided: List[float] = []  # beyond-horizon reply times

        # Constant-delay timers (see _Calendar): forward-state GC per
        # accepted forward, attempt timeout per lookup.
        self._gc = _Calendar(self, self._gc_dead, self._gc_fire)
        self._lt = _Calendar(self, self._lt_dead, self._lt_fire)

        # Tokens with a second chain (born at a late per-hop ack): their
        # replies and terminal GC are never computed ahead.
        self._forked: set = set()

        self.population = _Membership(self)

    # -- small helpers ------------------------------------------------------

    def _latency(self, a: int, b: int) -> float:
        rows = self._lat_rows
        if rows is not None:
            try:
                return rows[a][b]
            except KeyError:
                return rows.setdefault(a, self._lat_row_fn(a))[b]
        return self._lat_scalar(a, b)

    def _pair(self, a: int, b: int) -> Tuple[float, float]:
        """Pure latency ``a -> b`` and ``b -> a`` (the model's own
        ``pair`` replaces this per instance where it has one)."""
        return self._latency(a, b), self._latency(b, a)

    def _delay(self, lat: float, a: int, b: int, size: int) -> float:
        """Delivery delay with a bandwidth model: Network.send's
        uncontended ``latency + size / bandwidth`` over the pure
        latency ``lat`` of ``a -> b`` (zero-bandwidth pairs fall back
        to pure latency, as there)."""
        bw = self._bw(a, b)
        if bw:
            lat = lat + size / bw
        return lat

    def _push(self, delay: float, cb, args) -> None:
        sim = self._sim
        seq = sim._next_seq
        sim._next_seq = seq + 1
        heapq.heappush(sim._queue, (sim._now + delay, seq, cb, args))
        sim._live += 1

    def info_of(self, row: int) -> NodeInfo:
        from ..net.addressing import NodeAddress

        return NodeInfo(self.node_id[row], NodeAddress(self.host[row], self.inc[row]))

    def logical_events(self, upto: float) -> int:
        """The object engine's ``sim.events_processed`` for this run:
        kernel events, plus elided replies due by ``upto``, minus queued
        stand-ins for events the object engine cancelled."""
        fut = self._future_elided
        while fut and fut[0] <= upto:
            heapq.heappop(fut)
            self.elided += 1
        return self._sim._events_processed + self.elided - self.phantom

    def run(self, until: float) -> int:
        """Run the simulation to ``until`` with the built heap frozen
        out of cyclic GC (:func:`frozen_gc`); returns the logical events
        processed so far."""
        with frozen_gc():
            self._sim.run(until=until)
        return self.logical_events(until)

    @property
    def factory(self):
        """Rows are no node objects: there is no node factory."""
        raise unsupported("node handles")

    # -- build: id draws, bootstrap, timer starts ---------------------------

    def _create_row(self, host: int, inc: int) -> int:
        # VermeNodeFactory.type_for_host: host % 2 (Chord ids are untyped).
        source = self._layout if self._verme else self._config.space
        nid = unique_id(self._id_rng, source, host % 2, self._used_ids)
        row = len(self.node_id)
        self.node_id.append(nid)
        self.host.append(host)
        self.inc.append(inc)
        self.alive.append(0)
        self.succs.append([])
        self.sver.append(0)
        self.preds.append([])
        self.pver.append(0)
        self.fingers.append({})
        self.fver.append(0)
        self.rejoin.append([])
        self.rejoin_next.append(0)
        self.tok.append(0)
        self.lookups.append({})
        self.forwards.append({})
        self.cand_keys.append(None)
        self.cand_infos.append(None)
        self.cand_fver.append(-1)
        self.cand_sver.append(-1)
        factory = self._adm_factory
        self.adm.append(factory() if factory is not None else None)
        self.death_at.append(math.inf)
        return row

    def build(self, num_nodes: int, rngs: RngRegistry) -> None:
        """Create the initial population: same id stream, same jitter
        streams, same converged routing state, same timer start seqs as
        ``build_ring`` + ``instant_bootstrap``."""
        self._rngs = rngs
        self._id_rng = rngs.stream("node-ids")
        for slot in range(num_nodes):
            self._create_row(slot, 0)
        self._instant_bootstrap(num_nodes)
        # start_static per node, in creation order: stabilize timer then
        # finger timer, each with one jitter draw (PeriodicTimer.start).
        cb_stab = self._ev_stab
        cb_fing = self._ev_fing
        for row in range(num_nodes):
            self.alive[row] = 1
            jr = self.jitter_stream(row)
            self._push(self._stab_interval * jr.random(), cb_stab, (row,))
            self._push(self._fing_interval * jr.random(), cb_fing, (row,))
            self.order.append(row)

    def jitter_stream(self, row: int) -> random.Random:
        """A fresh copy of the row's incarnation jitter stream (the
        object factory's ``rngs.stream(f"jitter-{host}-{inc}")``).  It
        is derived unregistered: the engine draws the two timer phases
        from it and drops it, so neither the registry nor the engine
        holds one Mersenne-Twister state per incarnation."""
        name = f"jitter-{self.host[row]}-{self.inc[row]}"
        return random.Random(derive_seed(self._rngs.root_seed, name))

    def _instant_bootstrap(self, n: int) -> None:
        ids = self.node_id
        order = sorted(range(n), key=ids.__getitem__)
        entries_sorted = [(ids[r], r) for r in order]
        cs = min(self._num_succ, n - 1)
        cp = min(self._pred_limit, n - 1)
        for i, row in enumerate(order):
            succ = [entries_sorted[(i + 1 + j) % n] for j in range(cs)]
            pred = [entries_sorted[(i - 1 - j) % n] for j in range(cp)]
            self.succs[row] = succ
            self.sver[row] = 1 if succ else 0
            self.preds[row] = pred
            self.pver[row] = 1 if pred else 0
        if not n:
            return
        # Finger owners from the converged static overlay, whose sorted
        # index i is row order[i].
        if self._verme:
            overlay = VermeStaticOverlay.from_ids(self._layout, ids)
        else:
            overlay = StaticOverlay.from_ids(self._config.space, ids)
        fingers = self.fingers
        if self._bits <= 64:
            kmin, oi, ok = overlay.finger_owners_np(np.arange(n, dtype=np.int64))
            if oi is not None:
                for row, row_oi, row_ok in zip(order, oi.tolist(), ok.tolist()):
                    fdict = fingers[row]
                    for j, held in enumerate(row_ok):
                        if held:
                            fdict[kmin + j] = entries_sorted[row_oi[j]]
        else:  # from_ids' lazy infos are addressed by sorted index
            for i, row in enumerate(order):
                fingers[row] = {
                    k: entries_sorted[info.address.host_slot]
                    for k, info in overlay.finger_table(i).items()
                }
        for row in range(n):
            self.fver[row] = len(fingers[row])

    # -- drivers ------------------------------------------------------------

    def start_churn(self, rng, mean_lifetime_s: float) -> None:
        """Mirrors ChurnDriver.start: one lifetime draw + kill event per
        alive node, in population order."""
        self._churn_rng = rng
        self._mean_lifetime = mean_lifetime_s
        for row in list(self.order):
            self._push_kill(row)

    def _push_kill(self, row: int) -> None:
        lifetime = self._churn_rng.expovariate(1.0 / self._mean_lifetime)
        self.death_at[row] = self._sim._now + lifetime  # == the event's time
        self._push(lifetime, self._ev_kill, (row,))

    def set_admission(self, factory) -> None:
        """Install a per-node admission factory (call before build):
        every row — initial population and churn respawns — gets its own
        ``NodeAdmission`` from ``factory()``, mirroring the object
        experiment wrapping its node factory."""
        if self.node_id:
            raise RuntimeError("set_admission must precede build()")
        self._adm_factory = factory

    def start_workload(
        self,
        rng,
        style: LookupStyle,
        mean_interval_s: float,
        stats: LookupStats,
        warmup_s: float,
        generator=None,
    ) -> None:
        """Mirrors LookupWorkload.start (aggregate Poisson process, or
        the supplied ``repro.workload`` generator's keys and rates)."""
        self._wl_rng = rng
        self._wl_style = style
        self._wl_interval = mean_interval_s
        self._stats = stats
        self._wl_gen = generator
        if generator is not None:
            delay = generator.next_delay(rng, self._sim._now, len(self.order))
        else:
            delay = rng.expovariate(max(1, len(self.order)) / mean_interval_s)
        self._push(max(warmup_s, delay), self._ev_fire, ())

    # -- periodic / driver events -------------------------------------------

    def _ev_stab(self, row: int) -> None:
        if not self.alive[row]:
            self.phantom += 1  # object timer was stopped at crash
            return
        self._stabilize(row)
        self._push(self._stab_interval, self._ev_stab, (row,))

    def _ev_fing(self, row: int) -> None:
        if not self.alive[row]:
            self.phantom += 1
            return
        self._fix_fingers(row)
        self._push(self._fing_interval, self._ev_fing, (row,))

    def _ev_kill(self, row: int) -> None:
        if not self.alive[row]:
            return  # object _kill fires and returns (never cancelled)
        self.order.remove(row)
        # crash(): timers stop (their queued events pop as phantoms),
        # pending lookups and forward state vanish, rpc shuts down.
        self.alive[row] = 0
        self.lookups[row] = {}
        self.forwards[row] = {}
        self.deaths += 1
        inv = OBS.invariants
        if inv is not None:
            inv.note_membership(self._sim)
        self._push(
            self._rejoin_delay, self._ev_respawn, (self.host[row], self.inc[row] + 1)
        )

    def _ev_respawn(self, host: int, inc: int) -> None:
        order = self.order
        if not order:
            self._push(self._rejoin_delay, self._ev_respawn, (host, inc))
            return
        boot = self._churn_rng.choice(order)
        row = self._create_row(host, inc)
        self.alive[row] = 1
        self.rejoin[row] = [boot]
        self._lookup(
            row,
            self.node_id[row],
            _K_JOIN,
            _P_JOIN,
            "maintenance",
            first_hop=boot,
        )

    def _ev_fire(self) -> None:
        # RNG draw order (choice, key, delay) must match
        # LookupWorkload._fire / _next_delay exactly.
        order = self.order
        rng = self._wl_rng
        gen = self._wl_gen
        if order:
            row = rng.choice(order)
            if self.alive[row]:
                if gen is not None:
                    key = gen.draw_key(rng)
                else:
                    key = rng.getrandbits(self._bits)
                self._lookup(
                    row, key, _K_WORKLOAD, _P_DHT, "lookup", style=self._wl_style
                )
        if gen is not None:
            delay = gen.next_delay(rng, self._sim._now, len(order))
        else:
            delay = rng.expovariate(max(1, len(order)) / self._wl_interval)
        self._push(delay, self._ev_fire, ())

    # -- stabilization ------------------------------------------------------

    def _stabilize(self, row: int) -> None:
        succs = self.succs[row]
        if not succs:
            preds = self.preds[row]
            if preds:
                self._merge_succ(row, [preds[0]])
                return
            hop = rejoin_contact(
                (e[1] for e in self.fingers[row].values()), self.rejoin[row], self.rejoin_next[row]
            )
            if hop is not None:
                self.rejoin_next[row] += 1
                self._lookup(
                    row,
                    self.node_id[row],
                    _K_REJOIN,
                    _P_JOIN,
                    "maintenance",
                    first_hop=hop,
                )
            return
        succ = succs[0]
        self.rejoin[row] = [e[1] for e in succs]
        self._call_info(row, succ, _M_STAB)
        preds = self.preds[row]
        if preds:
            pred = preds[0]
            self._call_info(row, pred, _M_PRED if self._pred_limit > 1 else _M_PING)

    def _call_info(self, src_row: int, dst_entry: tuple, which: int) -> None:
        """rpc.call for the info-carrying maintenance methods: burn the
        failure-timer seq, account + send the request."""
        sim = self._sim
        seq = sim._next_seq  # timer seq (materialized only if needed)
        sim._next_seq = seq + 2  # + request send seq
        size = MIN_RPC_BYTES + self._entry_bytes if which == _M_NOTIFY else MIN_RPC_BYTES
        self._acct_b["maintenance"] += size
        self._acct_m["maintenance"] += 1
        deadline = sim._now + self._rpc_to
        src_host = self.host[src_row]
        dst_host = self.host[dst_entry[1]]
        lat, back = self._pair(src_host, dst_host)
        t = sim._now + (
            lat if self._bw is None else self._delay(lat, src_host, dst_host, size)
        )
        heapq.heappush(
            sim._queue,
            (t, seq + 1, self._ev_req, (src_row, dst_entry, deadline, seq, which, back)),
        )
        sim._live += 1

    def _ev_req(
        self,
        src_row: int,
        dst_entry: tuple,
        deadline: float,
        timer_seq: int,
        which: int,
        back: float,
    ) -> None:
        # ``back``: the pure latency of the reply's way, dst -> src.
        dst_row = dst_entry[1]
        sim = self._sim
        if sim._now >= deadline:
            self._late_request(src_row, dst_row, deadline, self._rpc_to)
        if not self.alive[dst_row]:
            self._net._drop(CAUSE_DEAD)
            heapq.heappush(
                sim._queue, (deadline, timer_seq, self._ev_to_dead, (src_row, dst_entry))
            )
            sim._live += 1
            return
        if which == _M_NOTIFY:
            self._merge_pred(dst_row, ((self.node_id[src_row], src_row),))
            self._reply_info_free(src_row, dst_row, deadline, timer_seq, dst_entry, back)
            return
        if which == _M_PING:
            self._reply_info_free(src_row, dst_row, deadline, timer_seq, dst_entry, back)
            return
        # get_neighbors: content reply, always materialized; payload and
        # size are snapshotted at respond time, as the object handler does.
        succs = self.succs[dst_row]
        preds = self.preds[dst_row]
        size = MIN_RPC_BYTES + (len(succs) + len(preds)) * self._entry_bytes
        seq = sim._next_seq
        sim._next_seq = seq + 1
        self._acct_b["maintenance"] += size
        self._acct_m["maintenance"] += 1
        t = sim._now + (
            back
            if self._bw is None
            else self._delay(back, self.host[dst_row], self.host[src_row], size)
        )
        payload = (preds[0] if preds else None, tuple(succs), tuple(preds))
        late = not (t < deadline)
        heapq.heappush(
            sim._queue,
            (t, seq, self._ev_gn_reply, (src_row, dst_entry, which, payload, late)),
        )
        sim._live += 1
        if late:
            heapq.heappush(
                sim._queue, (deadline, timer_seq, self._ev_to_dead, (src_row, dst_entry))
            )
            sim._live += 1

    def _late_request(self, src_row: int, dst_row: int, deadline: float, timeout: float):
        """Refuse a request that arrives at or after its own rpc deadline.

        The engine materialises a request's failure timer when the
        request arrives, which presumes one-way delay < timeout; past
        that, the object engine's timer would already have fired and
        the two engines would diverge without a word."""
        delay = self._sim._now - (deadline - timeout)
        raise ValueError(
            f"columnar engine: a request from host {self.host[src_row]} to host "
            f"{self.host[dst_row]} took {delay:.6g} s one way, at or past its rpc "
            f"timeout of {timeout:.6g} s; failure timers are materialised at "
            "arrival, so every pair's delay must stay below rpc_timeout_s"
        )

    def _reply_info_free(
        self,
        src_row: int,
        dst_row: int,
        deadline: float,
        timer_seq: int,
        dst_entry: tuple,
        back: float,
    ) -> None:
        """A reply that provably mutates nothing at the caller (ack of a
        notify/ping), over pure latency ``back``.  In-time under a run
        horizon: elide it (and the failure timer the object engine
        cancels).  Late: materialize both."""
        sim = self._sim
        seq = sim._next_seq
        sim._next_seq = seq + 1
        self._acct_b["maintenance"] += MIN_RPC_BYTES
        self._acct_m["maintenance"] += 1
        t = sim._now + (
            back
            if self._bw is None
            else self._delay(back, self.host[dst_row], self.host[src_row], MIN_RPC_BYTES)
        )
        if t < deadline:
            self._info_free_ack(t, seq, src_row)
        else:
            heapq.heappush(sim._queue, (t, seq, self._ev_noop, (src_row,)))
            heapq.heappush(
                sim._queue, (deadline, timer_seq, self._ev_to_dead, (src_row, dst_entry))
            )
            sim._live += 2

    def _info_free_ack(self, t: float, seq: int, caller: int) -> None:
        """An in-time info-free reply due at ``t``: counted, not queued,
        under a run horizon — unless the caller's crash is due by ``t``
        (its kill was pushed first, so a tie is a crash first): then
        ``_ev_noop`` counts the ``dead-destination`` drop."""
        sim = self._sim
        h = sim._run_until
        if h is None or self.death_at[caller] <= t:
            heapq.heappush(sim._queue, (t, seq, self._ev_noop, (caller,)))
            sim._live += 1
        elif t <= h:
            self.elided += 1
        else:
            heapq.heappush(self._future_elided, t)

    def _ev_noop(self, dst_row: int) -> None:
        # A materialized info-free reply: delivery to a dead caller is a
        # drop; to a live caller it only cancels the rpc failure timer.
        if not self.alive[dst_row]:
            self._net._drop(CAUSE_DEAD)

    def _ev_to_dead(self, src_row: int, dst_entry: tuple) -> None:
        # Maintenance rpc failure timer; on_error == _neighbor_dead(dst).
        if not self.alive[src_row]:
            self.phantom += 1  # rpc.shutdown cancelled it at crash
            return
        self._neighbor_dead(src_row, dst_entry[1])

    def _ev_gn_reply(
        self, src_row: int, dst_entry: tuple, which: int, payload: tuple, late: bool
    ) -> None:
        if not self.alive[src_row]:
            self._net._drop(CAUSE_DEAD)
            return
        if late:
            return  # rpc layer already timed the request out
        if which == _M_STAB:
            self._stabilize_reply(src_row, dst_entry, payload)
        else:
            self._pred_reply(src_row, dst_entry, payload)

    def _stabilize_reply(self, row: int, succ_entry: tuple, payload: tuple) -> None:
        pred0, succ_t, _pred_t = payload
        self._merge_succ(
            row,
            stabilize_candidates(self.node_id[row], succ_entry, succ_t, pred0, self._mask),
        )
        succs = self.succs[row]
        if succs:
            self._call_info(row, succs[0], _M_NOTIFY)

    def _pred_reply(self, row: int, pred_entry: tuple, payload: tuple) -> None:
        _pred0, _succ_t, pred_t = payload
        if pred_t:
            candidates = [pred_entry]
            candidates.extend(pred_t)
            self._merge_pred(row, candidates)

    # -- neighbor lists (rules.merge_neighbors / remove_ref) ----------------

    def _merge_succ(self, row: int, candidates) -> None:
        new = merge_neighbors(
            self.succs[row], candidates, self.node_id[row], self._mask,
            self._num_succ, True,
        )
        if new is not None:
            self.succs[row] = new
            self.sver[row] += 1

    def _merge_pred(self, row: int, candidates) -> None:
        new = merge_neighbors(
            self.preds[row], candidates, self.node_id[row], self._mask,
            self._pred_limit, False,
        )
        if new is not None:
            self.preds[row] = new
            self.pver[row] += 1

    def _replace_succ(self, row: int, entries) -> None:
        had = bool(self.succs[row])
        self.succs[row] = []
        self._merge_succ(row, entries)
        if had and not self.succs[row]:
            self.sver[row] += 1  # replace() bumps when non-empty -> empty

    def _neighbor_dead(self, row: int, dead_row: int) -> None:
        kept = remove_ref(self.succs[row], dead_row)
        if kept is not None:
            self.succs[row] = kept
            self.sver[row] += 1
        kept = remove_ref(self.preds[row], dead_row)
        if kept is not None:
            self.preds[row] = kept
            self.pver[row] += 1
        kept = remove_finger_ref(self.fingers[row], dead_row)
        if kept is not None:
            self.fingers[row] = kept
            self.fver[row] += 1

    # -- fingers ------------------------------------------------------------

    def _finger_target(self, own: int, k: int) -> int:
        if self._verme:
            return verme_finger_target(self._layout, own, k)
        return (own + (1 << k)) & self._mask

    def _fix_fingers(self, row: int) -> None:
        succs = self.succs[row]
        if not succs:
            return
        own = self.node_id[row]
        for k in range(first_maintained_finger(own, succs[0][0], self._mask), self._bits):
            self._lookup(
                row,
                self._finger_target(own, k),
                _K_FINGER,
                _P_FINGER,
                "maintenance",
                k=k,
            )

    def _finger_fixed(self, row: int, k: int, success: bool, entries) -> None:
        if not self.alive[row]:
            return
        if success and entries:
            e = entries[0]
            if finger_entry_allowed(self.node_id[row], e[0], self._shift, self._tmask):
                f = self.fingers[row]
                if f.get(k) != e:
                    f[k] = e
                    self.fver[row] += 1

    # -- lookup initiation ---------------------------------------------------

    def _lookup(
        self,
        row: int,
        key: int,
        kind: int,
        purpose: int,
        category: str,
        op_tag=None,
        meta=None,
        extra: int = 0,
        first_hop: Optional[int] = None,
        k: int = -1,
        style: Optional[int] = None,
        done_cb=None,
    ) -> None:
        sim = self._sim
        st = _Lookup()
        st.row = row
        st.key = key
        st.style = style if style is not None else _REC  # maintenance_style
        st.purpose = purpose
        st.category = category
        st.op_tag = op_tag
        st.meta = meta
        st.extra = extra
        st.started_at = sim._now
        st.first_hop = first_hop
        st.attempts = 0
        st.token = None
        st.failed = None
        st.kind = kind
        st.k = k
        st.done_cb = done_cb
        self._arm_timeout(st)
        self._attempt(st)

    def _arm_timeout(self, st: _Lookup) -> None:
        sim = self._sim
        seq = sim._next_seq
        sim._next_seq = seq + 1
        self._lt.add(sim._now + self._lookup_to, seq, st)

    def _lt_dead(self, st: _Lookup) -> bool:
        # _finish and crash both cancel the attempt timeout in the
        # object engine.
        return st.token is None or st.token not in self.lookups[st.row]

    def _lt_fire(self, st: _Lookup) -> None:
        if st.attempts > self._retries:
            self._finish(st, None, 0, "timeout", None)
            return
        self._arm_timeout(st)
        self._attempt(st)

    def _attempt(self, st: _Lookup) -> None:
        row = st.row
        if not self.alive[row]:
            return
        st.attempts += 1
        lk = self.lookups[row]
        if st.token is not None:
            lk.pop(st.token, None)
        c = self.tok[row]
        self.tok[row] = c + 1
        token = (row, c)
        st.token = token
        lk[token] = st
        if st.first_hop is not None:
            self._send_forward(st, token, st.first_hop, 1)
            return
        done, owner_self, nxt = self._route_next(row, st.key, st.failed or _NO_EXCLUDE)
        if done:
            self._complete_local(st, owner_self)
            return
        if nxt is None:
            self._finish(st, None, 0, "no route", None)
            return
        self._send_forward(st, token, nxt[1], 1)

    def _retry(self, st: _Lookup) -> None:
        if st.attempts > self._retries:
            self._finish(st, None, 0, "retries exhausted", None)
            return
        self._attempt(st)

    def _complete_local(self, st: _Lookup, owner_self: bool) -> None:
        row = st.row
        err = self._verify_core(row, row, st.key, st.purpose, st.meta)
        if err is not None:
            self._finish(st, None, 0, err, None)
            return
        entries = self._entries_for_key(row, st.key, st.purpose, owner_self)
        if st.purpose is _P_DHT and st.meta is not None:
            hook = self._dht_hook(row)
            if hook is not None:
                self._hook_local(st, hook, entries)
                return
        self._finish(st, entries, 0, None, None)

    def _finish(self, st, entries, hops, error, app_payload, tail=False) -> None:
        """Complete a lookup: its ``_ev_done`` is a zero-delay event.
        ``tail`` says the calling event does nothing after this call;
        if, besides, nothing queued shares ``now``, ``_ev_done`` would
        be the very next event to run, so it runs here instead."""
        row = st.row
        if st.token is not None:
            self.lookups[row].pop(st.token, None)
        success = error is None and entries is not None
        sim = self._sim
        latency = sim._now - st.started_at
        seq = sim._next_seq
        sim._next_seq = seq + 1
        queue = sim._queue
        if (
            tail
            and sim._run_until is not None
            and (not queue or queue[0][0] != sim._now)
        ):
            self.elided += 1
            self._ev_done(st, success, entries, latency, hops, error, app_payload)
            return
        heapq.heappush(
            queue,
            (sim._now, seq, self._ev_done, (st, success, entries, latency, hops, error, app_payload)),
        )
        sim._live += 1

    def _ev_done(self, st, success, entries, latency, hops, error, app_payload) -> None:
        kind = st.kind
        if kind == _K_WORKLOAD:
            self._stats.record(success, latency, hops)
        elif kind == _K_FINGER:
            self._finger_fixed(st.row, st.k, success, entries)
        elif kind == _K_JOIN:
            self._join_done(st, success, entries)
        elif kind == _K_REJOIN:
            self._rejoin_done(st.row, success, entries)
        else:
            st.done_cb(st, success, entries, latency, hops, error, app_payload)

    def _join_done(self, st, success, entries) -> None:
        row = st.row
        if not self.alive[row]:
            return
        if not success or not entries:
            self.alive[row] = 0
            self.failed_joins += 1
            self._push(
                self._rejoin_delay,
                self._ev_respawn,
                (self.host[row], self.inc[row] + 1),
            )
            return
        self._replace_succ(row, entries)
        jr = self.jitter_stream(row)
        self._push(self._stab_interval * jr.random(), self._ev_stab, (row,))
        self._push(self._fing_interval * jr.random(), self._ev_fing, (row,))
        self._stabilize(row)
        self._fix_fingers(row)
        # ChurnDriver._joined(ok=True)
        self.joins += 1
        self.order.append(row)
        self._push_kill(row)
        inv = OBS.invariants
        if inv is not None:
            inv.note_membership(self._sim)

    def _rejoin_done(self, row: int, success: bool, entries) -> None:
        if not self.alive[row] or self.succs[row]:
            return
        if success and entries:
            self._merge_succ(row, entries)  # the merge drops self

    # -- routing core --------------------------------------------------------

    def _route_next(self, row: int, key: int, exclude) -> Tuple[bool, bool, Optional[tuple]]:
        if self.fver[row] != self.cand_fver[row] or self.sver[row] != self.cand_sver[row]:
            self.cand_keys[row], self.cand_infos[row] = route_candidates(
                self.node_id[row], self.fingers[row].values(), self.succs[row], self._mask
            )
            self.cand_fver[row] = self.fver[row]
            self.cand_sver[row] = self.sver[row]
        return route_next(
            self.node_id[row], key, self.succs[row], self.preds[row],
            self.cand_keys[row], self.cand_infos[row], exclude, self._mask, self._shift,
        )

    def _entries_for_key(self, row: int, key: int, purpose: int, owner_self: bool):
        return entries_for_key(
            (self.node_id[row], row), key, owner_self, self.succs[row], self.preds[row],
            self._num_succ, self._shift if purpose is _P_DHT else None,
        )

    def _verify_core(self, term_row: int, init_row: int, key: int, purpose, meta):
        if not self._verme:
            return None
        return purpose_error(
            purpose, self.node_id[init_row], key, self._is_finger_target,
            self._verify_dht, term_row, init_row, key, meta,
        )

    # Hook points the fig6/7 facade layer overrides.
    def _dht_hook(self, row: int):
        return None

    def _verify_dht(self, term_row: int, init_row: int, key: int, meta):
        return None

    def _hook_local(self, st, hook, entries) -> None:  # pragma: no cover
        raise NotImplementedError

    def _hook_terminal(self, row, params, upstream, hook, entries, category, op_tag):
        raise NotImplementedError  # pragma: no cover

    # -- forwarding ----------------------------------------------------------

    def _send_forward(self, st: _Lookup, token: tuple, dst_row: int, hops: int) -> None:
        row = st.row
        params = (
            st.key,
            token,
            st.style,
            st.purpose,
            hops,
            st.meta,
            st.extra,
            row if st.style is _TRANS else None,  # origin
            row,  # initiator (certificate bearer)
        )
        self._forward(row, dst_row, params, 0, st, st.category, st.op_tag)

    def _forward(
        self, row: int, dst_row: int, params: tuple, errk: int, errctx, category: str, op_tag
    ) -> None:
        """rpc.call of one ``route_forward``: burn the failure-timer and
        send seqs, account the request, push its arrival at ``dst_row``."""
        extra = params[6]
        size = self._fwd_base + extra
        if params[7] is not None:
            size += ADDR_BYTES
        if extra:
            timeout = self._rpc_to + extra / _WORST_CASE_BANDWIDTH
        else:
            timeout = self._rpc_to
        sim = self._sim
        seq = sim._next_seq  # rpc failure timer seq
        sim._next_seq = seq + 2  # + send seq
        self._acct_b[category] += size
        self._acct_m[category] += 1
        if op_tag is not None:
            self._acct_o[op_tag] += size
        deadline = sim._now + timeout
        src_host = self.host[row]
        dst_host = self.host[dst_row]
        lat, back = self._pair(src_host, dst_host)
        t = sim._now + (
            lat if self._bw is None else self._delay(lat, src_host, dst_host, size)
        )
        heapq.heappush(
            sim._queue,
            (
                t,
                seq + 1,
                self._ev_fwd,
                (dst_row, row, params, deadline, seq, errk, errctx, category, op_tag, back),
            ),
        )
        sim._live += 1

    def _ev_fwd(
        self,
        dst_row: int,
        src_row: int,
        params: tuple,
        deadline: float,
        timer_seq: int,
        errk: int,
        errctx,
        category: str,
        op_tag,
        back: float,
    ) -> None:
        # ``back``: the pure latency dst -> src, of the ack and of a
        # result sent back upstream.
        sim = self._sim
        if sim._now >= deadline:
            extra = params[6]
            self._late_request(
                src_row, dst_row, deadline,
                self._rpc_to + extra / _WORST_CASE_BANDWIDTH if extra else self._rpc_to,
            )
        if not self.alive[dst_row]:
            self._net._drop(CAUSE_DEAD)
            heapq.heappush(
                sim._queue,
                (
                    deadline,
                    timer_seq,
                    self._ev_fwd_to,
                    (src_row, dst_row, errk, errctx, category, op_tag),
                ),
            )
            sim._live += 1
            return
        # Per-hop ack: info-free reply (rpc ack carries no information).
        seq = sim._next_seq
        sim._next_seq = seq + 1
        self._acct_b[category] += MIN_RPC_BYTES
        self._acct_m[category] += 1
        if op_tag is not None:
            self._acct_o[op_tag] += MIN_RPC_BYTES
        t = sim._now + (
            back
            if self._bw is None
            else self._delay(back, self.host[dst_row], self.host[src_row], MIN_RPC_BYTES)
        )
        if t < deadline:
            self._info_free_ack(t, seq, src_row)
        else:
            # Late ack: the sender's failure timer will re-route while
            # this node routes on — the one place a token's second
            # chain is born.
            self._forked.add(params[1])
            heapq.heappush(sim._queue, (t, seq, self._ev_noop, (src_row,)))
            heapq.heappush(
                sim._queue,
                (
                    deadline,
                    timer_seq,
                    self._ev_fwd_to,
                    (src_row, dst_row, errk, errctx, category, op_tag),
                ),
            )
            sim._live += 2
        hops = params[4]
        if hops > self._max_hops:
            self._send_result_back(
                dst_row, params, src_row, False, None, "hop limit", None, 0, "lookup", None,
                back,
            )
            return
        adm = self.adm[dst_row]
        if (
            adm is not None
            and params[3] is _P_DHT
            and (hops == 1 or not adm.policy.ingress_only)
        ):
            verdict = adm.admit(sim._now)
            if type(verdict) is str:  # shed cause
                self._send_result_back(
                    dst_row, params, src_row, False, None, verdict, None, 0,
                    "lookup", None, back,
                )
                return
            # Mirrors ChordNode._h_route_forward's sim.schedule of
            # _process_forward: one kernel event, one burned seq.  The
            # reverse latency is recomputed there rather than held by
            # every queued forward.
            self._push(
                verdict, self._ev_fwd_proc, (dst_row, src_row, params, category, op_tag)
            )
            return
        self._accept_forward(dst_row, src_row, params, category, op_tag, back)

    def _ev_fwd_proc(
        self, dst_row: int, src_row: int, params: tuple, category: str, op_tag
    ) -> None:
        """An admitted forward reached its virtual service time
        (mirrors ChordNode._process_forward, seq for seq)."""
        if not self.alive[dst_row]:
            return
        self.adm[dst_row].release()
        back = self._latency(self.host[dst_row], self.host[src_row])
        self._accept_forward(dst_row, src_row, params, category, op_tag, back)

    def _accept_forward(
        self, row: int, upstream: int, params: tuple, category: str, op_tag, up_lat: float
    ) -> None:
        """Recursive bookkeeping (forward state + its GC timer), then
        route.  The forward state is ``(upstream, params, expire,
        up_lat)``, ``up_lat`` the pure latency of a result's way back to
        ``upstream``.  The GC seq is burned either way; where the chain
        ends here on an unforked token, nothing can observe the entry
        again (no reply passes through, no second forward arrives), so
        its GC event is counted instead of queued — unless the row's
        crash comes first and cancels it, as in the object engine."""
        decision = None
        if params[2] is _REC:
            token = params[1]
            fwd = self.forwards[row]
            if token in fwd:
                return  # duplicate
            decision = self._route_next(row, params[0], _NO_EXCLUDE)
            sim = self._sim
            gseq = sim._next_seq
            sim._next_seq = gseq + 1
            expire = sim._now + self._gc_s
            h = sim._run_until
            if decision[2] is None and h is not None and token not in self._forked:
                if expire < self.death_at[row]:
                    if expire <= h:
                        self.elided += 1
                    else:
                        heapq.heappush(self._future_elided, expire)
            else:
                fwd[token] = (upstream, params, expire, up_lat)
                self._gc.add(expire, gseq, (row, token, expire))
        self._continue_forward(
            row, params, upstream, _NO_EXCLUDE, category, op_tag, decision, up_lat
        )

    def _continue_forward(
        self,
        row: int,
        params: tuple,
        upstream: int,
        exclude,
        category: str,
        op_tag,
        decision: Optional[tuple] = None,
        up_lat: Optional[float] = None,
    ) -> None:
        done, owner_self, nxt = decision or self._route_next(row, params[0], exclude)
        if done:
            self._terminate_route(row, params, upstream, owner_self, category, op_tag, up_lat)
            return
        if nxt is None:
            self._send_result_back(
                row, params, upstream, False, None, "no route", None, 0, "lookup", None,
                up_lat,
            )
            return
        fwd_params = (
            params[0],
            params[1],
            params[2],
            params[3],
            params[4] + 1,
            params[5],
            params[6],
            params[7],
            params[8],
        )
        self._forward(
            row, nxt[1], fwd_params, 1, (params, upstream, exclude), category, op_tag
        )

    def _ev_fwd_to(
        self, src_row: int, dead_row: int, errk: int, errctx, category: str, op_tag
    ) -> None:
        # A route_forward rpc failure timer fired.
        if not self.alive[src_row]:
            self.phantom += 1  # rpc.shutdown cancelled it at crash
            return
        if errk == 0:
            st = errctx  # initiator's first hop: _first_hop_failed
            if st.token is None or st.token not in self.lookups[src_row]:
                return
            self._neighbor_dead(src_row, dead_row)
            if st.failed is None:
                st.failed = set()
            st.failed.add(dead_row)
            self._retry(st)
            return
        params, upstream, exclude = errctx  # mid-route: _forward_hop_failed
        self._neighbor_dead(src_row, dead_row)
        exclude = set(exclude)
        exclude.add(dead_row)
        if len(exclude) > 4:
            self._send_result_back(
                src_row, params, upstream, False, None, "no route", None, 0, "lookup", None
            )
            return
        self._continue_forward(src_row, params, upstream, exclude, category, op_tag)

    def _gc_dead(self, item: tuple) -> bool:
        # The reply passed back through (or the row crashed): the object
        # engine cancelled this forward-state GC handle.  A forked
        # token's second chain may have registered the row afresh since;
        # that state has its own, later, expiry.
        row, token, expire = item
        fwd = self.forwards[row].get(token)
        return fwd is None or fwd[2] != expire

    def _gc_fire(self, item: tuple) -> None:
        del self.forwards[item[0]][item[1]]  # a leaked forward expires

    def _terminate_route(
        self,
        row: int,
        params: tuple,
        upstream: int,
        owner_self: bool,
        category: str,
        op_tag,
        up_lat: Optional[float] = None,
    ) -> None:
        key = params[0]
        err = self._verify_core(row, params[8], key, params[3], params[5])
        if err is not None:
            self._send_result_back(
                row, params, upstream, False, None, err, None, 0, "lookup", None, up_lat
            )
            return
        purpose = params[3]
        entries = self._entries_for_key(row, key, purpose, owner_self)
        meta = params[5]
        if purpose is _P_DHT and meta is not None:
            hook = self._dht_hook(row)
            if hook is not None:
                self._hook_terminal(row, params, upstream, hook, entries, category, op_tag)
                return
        self._send_result_back(
            row, params, upstream, True, entries, None, None, 0, category, op_tag, up_lat
        )

    def _send_result_back(
        self,
        row: int,
        params: tuple,
        upstream: int,
        ok: bool,
        entries,
        error,
        app_payload,
        extra_bytes: int,
        category: str,
        op_tag,
        up_lat: Optional[float] = None,
    ) -> None:
        """Send a lookup's result from ``row``: to the origin if the
        lookup is transitive, else back ``upstream``, over ``up_lat``
        when the caller knows that latency (``None``: computed)."""
        size = MIN_RPC_BYTES + extra_bytes
        payload = None
        if ok and entries is not None:
            payload = entries  # sealing is representation-free here
            size += len(entries) * self._entry_bytes + self._res_extra
        rparams = (params[1], ok, payload, app_payload, error, params[4], size)
        if params[2] is _TRANS:
            dst = params[7]
            if dst is None:
                return
            up_lat = None
        else:
            dst = upstream
        self._send_result(row, dst, rparams, category, op_tag, up_lat)

    def _send_result(
        self,
        src_row: int,
        dst_row: int,
        rparams: tuple,
        category: str,
        op_tag,
        lat: Optional[float] = None,
    ) -> None:
        """Send a route_result one hop — and, while the outcome of the
        next relay's ``_ev_res`` is already determined, the hops after
        it: same seq burn, same bytes, same float additions per hop as
        the relay event would have made, ``elided`` instead of a kernel
        event.  One ``_ev_res`` is queued at the first hop that fails a
        guard (see the module docstring's table).  ``lat`` is the first
        hop's pure latency, if known; each relay's is in its forward
        state."""
        sim = self._sim
        now = sim._now
        token = rparams[0]
        size = rparams[6]
        h = sim._run_until
        collapse = h is not None and token not in self._forked
        initiator = token[0]
        host = self.host
        acct_b = self._acct_b
        acct_m = self._acct_m
        while True:
            seq = sim._next_seq
            sim._next_seq = seq + 1
            acct_b[category] += size
            acct_m[category] += 1
            if op_tag is not None:
                self._acct_o[op_tag] += size
            if lat is None:
                lat = self._latency(host[src_row], host[dst_row])
            t = now + (
                lat if self._bw is None else self._delay(lat, host[src_row], host[dst_row], size)
            )
            if (
                collapse
                and t <= h
                and dst_row != initiator
                and t < self.death_at[dst_row]
            ):
                fwds = self.forwards[dst_row]
                fwd = fwds.get(token)
                if fwd is not None and t < fwd[2]:
                    del fwds[token]
                    self.elided += 1
                    src_row = dst_row
                    dst_row = fwd[0]
                    lat = fwd[3]
                    now = t
                    continue
            heapq.heappush(
                sim._queue, (t, seq, self._ev_res, (dst_row, rparams, category, op_tag))
            )
            sim._live += 1
            return

    def _ev_res(self, dst_row: int, rparams: tuple, category: str, op_tag) -> None:
        if not self.alive[dst_row]:
            self._net._drop(CAUSE_DEAD)
            return
        token = rparams[0]
        st = self.lookups[dst_row].get(token)
        if st is not None:
            self._initiator_result(st, rparams)
            return
        fwd = self.forwards[dst_row].pop(token, None)
        if fwd is None:
            return  # stale / GC'ed
        # relay upstream (the gc calendar entry is now stale)
        self._send_result(dst_row, fwd[0], rparams, category, op_tag, fwd[3])

    def _initiator_result(self, st: _Lookup, rparams: tuple) -> None:
        # Last act of _ev_res: every _finish below is in tail position.
        ok = rparams[1]
        if not ok:
            error = rparams[4]
            if error is not None and error.startswith("shed:"):
                # Definitive rejection: fail fast, no retries (mirrors
                # ChordNode._initiator_result's shed branch).
                self._finish(st, None, 0, error, None, tail=True)
                return
            if st.attempts > self._retries:
                self._finish(st, None, 0, rparams[4] or "failed", None, tail=True)
            else:
                self._retry(st)
            return
        entries = list(rparams[2])
        self._finish(st, entries, rparams[5], None, rparams[3], tail=True)

    # -- snapshots -----------------------------------------------------------

    def ring_snapshot(self, now: float):
        """A :class:`~repro.invariants.snapshot.RingSnapshot` built from
        the state arrays (satellite: --invariants on both engines)."""
        from ..invariants.snapshot import RingSnapshot

        rows = [r for r in self.order]
        rows.sort()
        node_ids = []
        succ_ids = []
        pred_ids = []
        finger_rows = []
        for r in rows:
            own = self.node_id[r]
            node_ids.append(own)
            succ_ids.append([e[0] for e in self.succs[r]])
            pred_ids.append([e[0] for e in self.preds[r]])
            finger_rows.append(
                [
                    (k, self._finger_target(own, k), e[0])
                    for k, e in self.fingers[r].items()
                ]
            )
        return RingSnapshot.from_arrays(
            self._bits,
            now,
            node_ids,
            succ_ids,
            pred_ids,
            finger_rows,
            layout=self._layout,
        )
