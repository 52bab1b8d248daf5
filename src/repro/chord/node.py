"""The Chord protocol node.

Implements the full node lifecycle the paper's §4.2 overview describes:
ring creation, joining via a lookup of the node's own id, successor
stabilization (every 30 s in the experiments), finger stabilization
(every 60 s), failure handling through RPC timeouts, and the two
lookup styles (recursive / transitive).

The routing engine is shared with :class:`repro.verme.node.VermeNode`,
which only overrides finger-target placement, result packaging
(sealing) and lookup verification, and hands the rules of
:mod:`repro.chord.rules` its section layout (section-bounded ownership,
the containment refusal, in-section replica groups) — exactly the
deltas the paper introduces.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..ids.idspace import IdSpace
from ..net.addressing import NodeAddress
from ..net.message import ADDR_BYTES, ID_BYTES, entry_bytes
from ..net.network import Network
from ..obs import OBS
from ..sim import EventHandle, PeriodicTimer, Simulator
from .config import OverlayConfig
from .lookup import LookupPurpose, LookupResult, LookupStyle
from .rpc import MIN_RPC_BYTES, RpcContext, RpcLayer
from .rules import (
    entries_for_key,
    finger_entry_allowed,
    first_maintained_finger,
    rejoin_contact,
    route_candidates,
    route_next,
    stabilize_candidates,
)
from .state import FingerTable, NeighborList, NodeInfo

LookupCallback = Callable[[LookupResult], None]

# A DHT layer may install this hook; it runs on the node that terminates
# a lookup, and must eventually call ``done(app_payload, extra_bytes)``.
ResponsibleHook = Callable[[int, dict, List[NodeInfo], Callable[[object, int], None]], None]


#: Shared empty exclude set for hops with no failure history (the
#: common case); read-only by contract of ``_route_next``.
_NO_EXCLUDE: frozenset = frozenset()

#: Hop-count histogram buckets for the ``lookup.hops`` metric: one
#: bucket per hop up to twice the ~log2 N of the largest experiments.
_HOP_BUCKETS = tuple(float(i) for i in range(1, 33))


@dataclass(slots=True)
class _PendingLookup:
    key: int
    style: LookupStyle
    purpose: LookupPurpose
    on_done: LookupCallback
    category: str
    op_tag: Optional[int]
    request_meta: Optional[dict]
    extra_request_bytes: int
    started_at: float
    first_hop: Optional[NodeAddress]
    timer: Optional[EventHandle] = None
    attempts: int = 0
    token: Optional[tuple] = None
    failed_hops: Set[NodeAddress] = field(default_factory=set)


@dataclass(slots=True)
class _ForwardState:
    upstream: NodeAddress
    exclude: Set[NodeAddress]
    params: dict
    gc_handle: EventHandle


class ChordNode:
    """One overlay node; see module docstring."""

    #: style used for the node's own maintenance lookups (joins, fingers)
    maintenance_style = LookupStyle.RECURSIVE
    #: styles this overlay permits (Verme restricts this set)
    allowed_styles = frozenset({LookupStyle.RECURSIVE, LookupStyle.TRANSITIVE})
    #: the overlay arguments of :mod:`repro.chord.rules`: ``None`` is
    #: Chord (Verme sets its section bits and type-field mask)
    _shift: Optional[int] = None
    _tmask = 0

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: OverlayConfig,
        node_id: int,
        address: NodeAddress,
        jitter_rng=None,
    ) -> None:
        config.space.validate(node_id)
        self.sim = sim
        self.network = network
        self.config = config
        self.node_id = node_id
        self.address = address
        self.rpc = RpcLayer(
            sim,
            network,
            address,
            config.rpc_timeout_s,
            max_retransmits=config.rpc_max_retransmits,
            backoff_factor=config.rpc_backoff_factor,
            backoff_jitter=config.rpc_backoff_jitter,
            jitter_rng=jitter_rng,
        )
        self.space: IdSpace = config.space
        self.successors = NeighborList(
            self.space, node_id, config.num_successors, clockwise=True
        )
        self.predecessors = NeighborList(
            self.space, node_id, self._predecessor_limit(), clockwise=False
        )
        self.fingers = FingerTable()
        self._alive = False
        self._jitter_rng = jitter_rng
        self._stabilize_timer = PeriodicTimer(
            sim, config.stabilize_interval_s, self._stabilize, jitter_rng
        )
        self._finger_timer = PeriodicTimer(
            sim, config.finger_interval_s, self._fix_fingers, jitter_rng
        )
        self._lookups: Dict[tuple, _PendingLookup] = {}
        self._forwards: Dict[tuple, _ForwardState] = {}
        # Bootstrap cache: recent successor addresses plus the join
        # bootstrap.  Never purged by the failure detector, so a node
        # stranded by a long partition can still re-enter the ring.
        self._rejoin_contacts: List[NodeAddress] = []
        self._rejoin_next = 0
        self._token_counter = itertools.count()
        self.dht_lookup_hook: Optional[ResponsibleHook] = None
        #: serving-layer admission control (repro.chord.admission);
        #: None = unlimited capacity, the paper's model.
        self.admission = None
        self.lookups_started = 0
        self.lookups_failed = 0
        # Per-hop constants, computed once: the forward path consults
        # these per routed message, and the subclass byte-cost hooks
        # (Verme's certificate / sealing overheads) are constants per
        # node, not per lookup.
        self._addr_str = str(address)
        self._self_info = NodeInfo(node_id, address)  # immutable, shared
        self._mask = config.space.mask
        self._rpc_timeout_s = config.rpc_timeout_s
        self._forward_base_bytes = (
            MIN_RPC_BYTES + ID_BYTES + self._lookup_request_extra_bytes()
        )
        # Routing-candidate cache (rules.route_candidates), rebuilt when
        # either table's version moves; steady-state decisions touch no
        # allocation at all.
        self._cand_keys: List[int] = []
        self._cand_infos: List[NodeInfo] = []
        self._cand_fver = -1
        self._cand_sver = -1
        self._register_handlers()

    # -- identity ------------------------------------------------------------

    @property
    def info(self) -> NodeInfo:
        return self._self_info

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def predecessor(self) -> Optional[NodeInfo]:
        return self.predecessors.first

    def _predecessor_limit(self) -> int:
        """Chord keeps a single predecessor; Verme keeps a list."""
        return 1

    def routing_state(self):
        """Plain-ids view of the routing tables for auditing and
        invariant checking (:mod:`repro.invariants`):
        ``(successor ids, predecessor ids, ((k, target, entry id), ...))``.
        Reads the live entry lists without copying NodeInfo objects."""
        return (
            tuple(e.node_id for e in self.successors.entries_view),
            tuple(e.node_id for e in self.predecessors.entries_view),
            tuple(
                (k, self.finger_target(k), info.node_id)
                for k, info in self.fingers.items()
            ),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.node_id:#x} at {self.address}>"

    # -- lifecycle -----------------------------------------------------------

    def create_ring(self) -> None:
        """Become the first node of a new ring."""
        self.rpc.start()
        self._alive = True
        self._start_timers()

    def join(
        self,
        bootstrap: NodeAddress,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Join an existing ring through ``bootstrap`` (paper §4.2/§4.5:
        joins are initiated by looking up the incoming node's own id)."""
        self.rpc.start()
        self._alive = True
        self._rejoin_contacts = [bootstrap]
        self.lookup(
            self.node_id,
            on_done=lambda res: self._join_done(res, on_done),
            style=self.maintenance_style,
            purpose=LookupPurpose.JOIN,
            category="maintenance",
            first_hop=bootstrap,
        )

    def _join_done(
        self, result: LookupResult, on_done: Optional[Callable[[bool], None]]
    ) -> None:
        if not self._alive:
            return
        if not result.success or not result.entries:
            self._alive = False
            self.rpc.shutdown()
            if on_done is not None:
                on_done(False)
            return
        self.successors.replace(result.entries)
        self._start_timers()
        self._stabilize()
        self._fix_fingers()
        if on_done is not None:
            on_done(True)

    def start_static(self) -> None:
        """Go live with pre-filled routing state (instant bootstrap)."""
        self.rpc.start()
        self._alive = True
        self._start_timers()

    def crash(self) -> None:
        """Fail-stop: leave the network without telling anyone."""
        self._alive = False
        self._stabilize_timer.stop()
        self._finger_timer.stop()
        for state in self._lookups.values():
            if state.timer is not None:
                state.timer.cancel()
        self._lookups.clear()
        for fwd in self._forwards.values():
            fwd.gc_handle.cancel()
        self._forwards.clear()
        self.rpc.shutdown()

    def _start_timers(self) -> None:
        self._stabilize_timer.start()
        self._finger_timer.start()

    # -- handler registration --------------------------------------------------

    def _register_handlers(self) -> None:
        self.rpc.register("ping", self._h_ping)
        self.rpc.register("get_neighbors", self._h_get_neighbors)
        self.rpc.register("notify", self._h_notify)
        # The two per-hop forwarding methods dominate message volume and
        # use the context-free fast dispatch (see RpcLayer.register_fast).
        self.rpc.register_fast("route_forward", self._h_route_forward)
        self.rpc.register_fast("route_result", self._h_route_result)

    # -- basic handlers ---------------------------------------------------------

    def _h_ping(self, params: dict, ctx: RpcContext) -> None:
        ctx.respond({})

    def _h_get_neighbors(self, params: dict, ctx: RpcContext) -> None:
        succs = self.successors.entries
        preds = self.predecessors.entries
        size = MIN_RPC_BYTES + (len(succs) + len(preds)) * entry_bytes()
        ctx.respond(
            {
                "predecessor": self.predecessor,
                "successors": succs,
                "predecessors": preds,
            },
            size=size,
        )

    def _h_notify(self, params: dict, ctx: RpcContext) -> None:
        self.predecessors.merge([params["node"]])  # the merge drops self
        ctx.respond({})

    # -- stabilization ------------------------------------------------------------

    def _stabilize(self) -> None:
        if not self._alive:
            return
        succ = self.successors.first
        if succ is None:
            pred = self.predecessor
            if pred is not None:
                self.successors.merge([pred])
                return
            # Fully stranded: every successor and predecessor was purged
            # (a long partition can do this).  Re-enter the ring by
            # re-running the join lookup for our own id through a
            # surviving finger, or — once those are purged too — through
            # the bootstrap cache, which failed attempts never empty.
            hop = rejoin_contact(
                (e.address for e in self.fingers.values()), self._rejoin_contacts, self._rejoin_next
            )
            if hop is not None:
                self._rejoin_next += 1
                self.lookup(
                    self.node_id,
                    on_done=self._rejoin_done,
                    style=self.maintenance_style,
                    purpose=LookupPurpose.JOIN,
                    category="maintenance",
                    first_hop=hop,
                )
            return
        self._rejoin_contacts = [e.address for e in self.successors.entries]
        self.rpc.call(
            succ.address,
            "get_neighbors",
            {},
            on_reply=lambda res: self._stabilize_reply(succ, res),
            on_error=lambda err: self._neighbor_dead(succ),
            category="maintenance",
        )
        pred = self.predecessor
        if pred is not None:
            self.rpc.call(
                pred.address,
                "get_neighbors" if self.predecessors._limit > 1 else "ping",
                {},
                on_reply=lambda res: self._predecessor_reply(pred, res),
                on_error=lambda err: self._neighbor_dead(pred),
                category="maintenance",
            )

    def _rejoin_done(self, result: LookupResult) -> None:
        if not self._alive or self.successors.first is not None:
            return
        if result.success and result.entries:
            self.successors.merge(result.entries)  # the merge drops self

    def _stabilize_reply(self, succ: NodeInfo, res: dict) -> None:
        if not self._alive:
            return
        self.successors.merge(stabilize_candidates(
            self.node_id, succ, res.get("successors", []), res.get("predecessor"), self._mask
        ))
        new_succ = self.successors.first
        if new_succ is not None:
            self.rpc.call(
                new_succ.address,
                "notify",
                {"node": self.info},
                on_error=lambda err: self._neighbor_dead(new_succ),
                size=MIN_RPC_BYTES + entry_bytes(),
                category="maintenance",
            )

    def _predecessor_reply(self, pred: NodeInfo, res: dict) -> None:
        if not self._alive or not isinstance(res, dict):
            return
        more = res.get("predecessors")
        if more:
            self.predecessors.merge([pred] + list(more))

    def _neighbor_dead(self, info: NodeInfo) -> None:
        """RPC timeout: purge the node from all routing state."""
        self.successors.remove_address(info.address)
        self.predecessors.remove_address(info.address)
        self.fingers.remove_address(info.address)

    # -- fingers ------------------------------------------------------------------

    def finger_target(self, k: int) -> int:
        """Where finger ``k`` should point (Verme overrides this)."""
        return self.space.power_of_two_target(self.node_id, k)

    def _maintained_finger_indices(self) -> List[int]:
        """Finger indices not already covered by the successor list."""
        succ = self.successors.first
        if succ is None:
            return []
        start = first_maintained_finger(self.node_id, succ.node_id, self._mask)
        return list(range(start, self.space.bits))

    def _fix_fingers(self) -> None:
        if not self._alive:
            return
        for k in self._maintained_finger_indices():
            target = self.finger_target(k)
            self.lookup(
                target,
                on_done=lambda res, k=k: self._finger_fixed(k, res),
                style=self.maintenance_style,
                purpose=LookupPurpose.FINGER,
                category="maintenance",
            )

    def _finger_fixed(self, k: int, result: LookupResult) -> None:
        if not self._alive:
            return
        if result.success and result.entries:
            entry = result.entries[0]
            if finger_entry_allowed(self.node_id, entry[0], self._shift, self._tmask):
                self.fingers.set(k, entry)

    # -- routing core ---------------------------------------------------------------

    def _route_next(self, key: int, exclude: Set[NodeAddress]) -> tuple:
        """One routing decision, ``(done, owner_is_self, next_hop)``
        (:func:`~repro.chord.rules.route_next`), over the live tables
        and the version-keyed candidate cache."""
        fingers = self.fingers
        succs = self.successors
        if fingers.version != self._cand_fver or succs.version != self._cand_sver:
            self._cand_keys, self._cand_infos = route_candidates(
                self.node_id, fingers.values(), succs._entries, self._mask
            )
            self._cand_fver = fingers.version
            self._cand_sver = succs.version
        return route_next(
            self.node_id, key, succs._entries, self.predecessors._entries,
            self._cand_keys, self._cand_infos, exclude, self._mask, self._shift,
        )

    def _entries_for_key(
        self, key: int, purpose: LookupPurpose, owner_is_self: bool
    ) -> List[NodeInfo]:
        """The node list a terminating lookup returns
        (:func:`~repro.chord.rules.entries_for_key`)."""
        return entries_for_key(
            self._self_info, key, owner_is_self, self.successors._entries,
            self.predecessors._entries, self.config.num_successors,
            self._shift if purpose is LookupPurpose.DHT else None,
        )

    # -- lookup verification / packaging (Verme overrides) ----------------------------

    def _verify_lookup(self, key: int, params: dict) -> Optional[str]:
        """Return an error string to reject the lookup, or None to allow."""
        return None

    def _package_result(self, entries: List[NodeInfo], params: dict) -> object:
        return entries

    def _unpackage_result(self, payload: object) -> List[NodeInfo]:
        return list(payload)  # type: ignore[arg-type]

    def _lookup_request_extra_bytes(self) -> int:
        """Extra per-request wire bytes (Verme adds the certificate)."""
        return 0

    def _result_extra_bytes(self) -> int:
        """Extra per-result wire bytes (Verme adds sealing overhead)."""
        return 0

    def _attach_credentials(self, params: dict) -> None:
        """Add certificates etc. to an outgoing lookup (Verme overrides)."""

    # -- lookup initiation ---------------------------------------------------------

    def lookup(
        self,
        key: int,
        on_done: LookupCallback,
        style: Optional[LookupStyle] = None,
        purpose: LookupPurpose = LookupPurpose.DHT,
        category: Optional[str] = None,
        op_tag: Optional[int] = None,
        request_meta: Optional[dict] = None,
        extra_request_bytes: int = 0,
        first_hop: Optional[NodeAddress] = None,
    ) -> None:
        """Find the nodes responsible for ``key``.

        ``on_done`` receives a :class:`LookupResult`.  ``request_meta``
        and ``extra_request_bytes`` support piggybacked DHT operations
        (Secure-VerDi); ``first_hop`` routes the first step through a
        specific node (used when joining).
        """
        style = style if style is not None else self.maintenance_style
        if style not in self.allowed_styles:
            raise ValueError(f"{type(self).__name__} does not allow {style}")
        if category is None:
            category = "lookup" if purpose is LookupPurpose.DHT else "maintenance"
        self.lookups_started += 1
        sim = self.sim
        # Inlined _PendingLookup construction and Simulator.schedule for
        # the attempt timer (one of each per lookup).
        state = _PendingLookup.__new__(_PendingLookup)
        state.key = key
        state.style = style
        state.purpose = purpose
        state.on_done = on_done
        state.category = category
        state.op_tag = op_tag
        state.request_meta = request_meta
        state.extra_request_bytes = extra_request_bytes
        state.started_at = sim._now
        state.first_hop = first_hop
        state.attempts = 0
        state.token = None
        state.failed_hops = set()
        fire_at = sim._now + self.config.lookup_timeout_s
        timer = EventHandle.__new__(EventHandle)
        timer.time = fire_at
        timer.callback = self._lookup_attempt_timeout
        timer.args = (state,)
        timer._cancelled = False
        timer._fired = False
        timer._sim = sim
        seq = sim._next_seq
        sim._next_seq = seq + 1
        heapq.heappush(sim._queue, (fire_at, seq, timer))
        sim._live += 1
        state.timer = timer
        self._attempt(state)

    def _new_token(self, state: _PendingLookup) -> tuple:
        token = (self._addr_str, next(self._token_counter))
        state.token = token
        self._lookups[token] = state
        return token

    def _attempt(self, state: _PendingLookup) -> None:
        if not self._alive:
            return
        state.attempts += 1
        if state.token is not None:
            self._lookups.pop(state.token, None)
        token = self._new_token(state)

        if state.first_hop is not None:
            # Joining: we have no routing state of our own, so every
            # attempt must enter the overlay through the bootstrap node.
            self._send_forward(state, token, state.first_hop, hops=1)
            return

        done, owner_is_self, next_hop = self._route_next(state.key, state.failed_hops)
        if done:
            self._complete_local(state, owner_is_self)
            return
        if next_hop is None:
            self._finish(state, None, error="no route")
            return
        self._send_forward(state, token, next_hop.address, hops=1)

    def _complete_local(self, state: _PendingLookup, owner_is_self: bool) -> None:
        """The initiator itself terminates the lookup."""
        err = self._verify_lookup(state.key, self._request_params(state, None, 0))
        if err is not None:
            self._finish(state, None, error=err)
            return
        entries = self._entries_for_key(state.key, state.purpose, owner_is_self)

        def done(app_payload: object, _extra: int) -> None:
            self._finish(state, entries, hops=0, app_payload=app_payload)

        if (
            state.purpose is LookupPurpose.DHT
            and state.request_meta is not None
            and self.dht_lookup_hook is not None
        ):
            self.dht_lookup_hook(state.key, state.request_meta, entries, done)
        else:
            done(None, 0)

    def _request_params(
        self, state: _PendingLookup, token: Optional[tuple], hops: int
    ) -> dict:
        params = {
            "key": state.key,
            "token": token,
            "style": state.style,
            "purpose": state.purpose,
            "hops": hops,
            "meta": state.request_meta,
            "extra_bytes": state.extra_request_bytes,
            "origin": self.address if state.style is LookupStyle.TRANSITIVE else None,
        }
        self._attach_credentials(params)
        return params

    # Slowest plausible access uplink (bytes/s); used to keep the per-hop
    # failure-detection timeout above the serialization delay of lookups
    # that piggyback bulk data (Secure-VerDi puts).
    _WORST_CASE_BANDWIDTH = 1e4

    def _send_forward(
        self, state: _PendingLookup, token: tuple, dst: NodeAddress, hops: int
    ) -> None:
        self._call_forward(
            dst,
            self._request_params(state, token, hops),
            lambda err: self._first_hop_failed(state, dst),
            state.category,
            state.op_tag,
        )

    def _call_forward(
        self, dst: NodeAddress, params: dict, on_error, category: str, op_tag: Optional[int]
    ) -> None:
        """One ``route_forward`` rpc, sized and timed from its params."""
        extra = params["extra_bytes"]
        size = self._forward_base_bytes + extra
        if params["origin"] is not None:
            size += ADDR_BYTES
        if extra:
            timeout = self._rpc_timeout_s + extra / self._WORST_CASE_BANDWIDTH
        else:
            timeout = self._rpc_timeout_s
        # No on_reply: the ack carries no information.
        self.rpc.call(
            dst, "route_forward", params, None, on_error, timeout, size, category, op_tag
        )

    def _first_hop_failed(self, state: _PendingLookup, dst: NodeAddress) -> None:
        if state.token is None or state.token not in self._lookups:
            return
        self.successors.remove_address(dst)
        self.fingers.remove_address(dst)
        self.predecessors.remove_address(dst)
        state.failed_hops.add(dst)
        self._retry(state)

    def _retry(self, state: _PendingLookup) -> None:
        if state.attempts > self.config.lookup_retries:
            self._finish(state, None, error="retries exhausted")
            return
        self._attempt(state)

    def _lookup_attempt_timeout(self, state: _PendingLookup) -> None:
        if state.token is None or state.token not in self._lookups:
            return
        if state.attempts > self.config.lookup_retries:
            self._finish(state, None, error="timeout")
            return
        state.timer = self.sim.schedule(
            self.config.lookup_timeout_s, self._lookup_attempt_timeout, state
        )
        self._attempt(state)

    def _finish(
        self,
        state: _PendingLookup,
        entries: Optional[List[NodeInfo]],
        hops: int = 0,
        error: Optional[str] = None,
        app_payload: object = None,
    ) -> None:
        if state.token is not None:
            self._lookups.pop(state.token, None)
        if state.timer is not None:
            state.timer.cancel()
        success = error is None and entries is not None
        if not success:
            self.lookups_failed += 1
        sim = self.sim
        # Inlined LookupResult construction and the zero-delay
        # call_after handing it to the caller (one per lookup).
        latency = sim._now - state.started_at
        result = LookupResult.__new__(LookupResult)
        result.key = state.key
        result.success = success
        result.entries = list(entries) if entries else []
        result.latency_s = latency
        result.hops = hops
        result.retries = state.attempts - 1
        result.error = error
        result.app_payload = app_payload
        metrics = OBS.metrics
        if metrics is not None:
            if success:
                metrics.counter("lookup.successes").inc()
                metrics.histogram("lookup.hops", _HOP_BUCKETS).observe(hops)
                metrics.histogram("lookup.latency_s").observe(latency)
            else:
                metrics.counter("lookup.failures").inc()
        trace = OBS.trace
        if trace is not None:
            trace.complete(
                "lookup",
                state.started_at,
                latency,
                lane="lookup",
                args={
                    "hops": hops,
                    "retries": result.retries,
                    "ok": success,
                    "error": error,
                },
            )
        seq = sim._next_seq
        sim._next_seq = seq + 1
        heapq.heappush(sim._queue, (sim._now, seq, state.on_done, (result,)))
        sim._live += 1

    # -- recursive / transitive forwarding ------------------------------------------

    def _h_route_forward(self, request, msg) -> None:
        # Fast handler: (request, msg), no RpcContext (one per routed
        # message — see _register_handlers).
        self.rpc.ack_request(request, msg)  # per-hop ack (failure detector)
        params = request.params
        src = msg.src
        hops = params["hops"]
        if hops > self.config.max_lookup_hops:
            self._send_result_back(params, src, ok=False, error="hop limit")
            return
        adm = self.admission
        if (
            adm is not None
            and params["purpose"] is LookupPurpose.DHT
            and (hops == 1 or not adm.policy.ingress_only)
        ):
            verdict = adm.admit(self.sim._now)
            if type(verdict) is str:  # shed cause
                self._send_result_back(params, src, ok=False, error=verdict)
                return
            # Admitted: processing happens when the virtual service
            # queue reaches this request (one kernel event, mirrored
            # seq-for-seq by the columnar engine).
            self.sim.schedule(
                verdict, self._process_forward, params, src, msg.category, msg.op_tag
            )
            return
        self._accept_forward(params, src, msg.category, msg.op_tag)

    def _process_forward(
        self,
        params: dict,
        src: NodeAddress,
        category: str,
        op_tag: Optional[int],
    ) -> None:
        """An admitted forward reached its service time: the deferred
        second half of :meth:`_h_route_forward` (REC bookkeeping +
        routing), after the admission queue delay."""
        if not self._alive:
            return
        self.admission.release()
        self._accept_forward(params, src, category, op_tag)

    def _accept_forward(
        self,
        params: dict,
        src: NodeAddress,
        category: str,
        op_tag: Optional[int],
    ) -> None:
        """Recursive bookkeeping (forward state + its GC timer), then
        route (mirrors ColumnarEngine._accept_forward)."""
        if params["style"] is LookupStyle.RECURSIVE:
            token = params["token"]
            if token in self._forwards:
                return  # duplicate
            # Inlined Simulator.schedule for the forward-state GC timer
            # (one per accepted forward; cancelled when the result
            # passes back through).
            sim = self.sim
            fire_at = sim._now + self.config.pending_route_gc_s
            gc_handle = EventHandle.__new__(EventHandle)
            gc_handle.time = fire_at
            gc_handle.callback = self._gc_forward
            gc_handle.args = (token,)
            gc_handle._cancelled = False
            gc_handle._fired = False
            gc_handle._sim = sim
            seq = sim._next_seq
            sim._next_seq = seq + 1
            heapq.heappush(sim._queue, (fire_at, seq, gc_handle))
            sim._live += 1
            fwd = _ForwardState.__new__(_ForwardState)
            fwd.upstream = src
            fwd.exclude = _NO_EXCLUDE
            fwd.params = params
            fwd.gc_handle = gc_handle
            self._forwards[token] = fwd
        self._continue_forward(params, src, _NO_EXCLUDE, category, op_tag)

    def _continue_forward(
        self,
        params: dict,
        upstream: NodeAddress,
        exclude: Set[NodeAddress],
        category: str,
        op_tag: Optional[int],
    ) -> None:
        key = params["key"]
        done, owner_is_self, nxt = self._route_next(key, exclude)
        if done:
            self._terminate_route(params, upstream, owner_is_self, category, op_tag)
            return
        if nxt is None:
            self._send_result_back(params, upstream, ok=False, error="no route")
            return
        fwd_params = dict(params)
        fwd_params["hops"] = params["hops"] + 1
        self._call_forward(
            nxt.address,
            fwd_params,
            lambda err: self._forward_hop_failed(
                params, upstream, exclude, nxt, category, op_tag
            ),
            category,
            op_tag,
        )

    def _forward_hop_failed(
        self,
        params: dict,
        upstream: NodeAddress,
        exclude: Set[NodeAddress],
        dead: NodeInfo,
        category: str,
        op_tag: Optional[int],
    ) -> None:
        if not self._alive:
            return
        self._neighbor_dead(dead)
        exclude = set(exclude)
        exclude.add(dead.address)
        if len(exclude) > 4:
            self._send_result_back(params, upstream, ok=False, error="no route")
            return
        self._continue_forward(params, upstream, exclude, category, op_tag)

    def _terminate_route(
        self,
        params: dict,
        upstream: NodeAddress,
        owner_is_self: bool,
        category: str,
        op_tag: Optional[int],
    ) -> None:
        key = params["key"]
        err = self._verify_lookup(key, params)
        if err is not None:
            self._send_result_back(params, upstream, ok=False, error=err)
            return
        purpose: LookupPurpose = params["purpose"]
        entries = self._entries_for_key(key, purpose, owner_is_self)
        meta = params.get("meta")

        def done(app_payload: object, extra_bytes: int) -> None:
            # Secure-VerDi piggybacked operations never disclose replica
            # addresses to the initiator (it has no use for them).
            returned = [] if (meta or {}).get("suppress_entries") else entries
            self._send_result_back(
                params,
                upstream,
                ok=True,
                entries=returned,
                app_payload=app_payload,
                extra_bytes=extra_bytes,
                category=category,
                op_tag=op_tag,
            )

        if purpose is LookupPurpose.DHT and meta is not None and self.dht_lookup_hook:
            self.dht_lookup_hook(key, meta, entries, done)
        else:
            done(None, 0)

    def _send_result_back(
        self,
        params: dict,
        upstream: NodeAddress,
        ok: bool,
        entries: Optional[List[NodeInfo]] = None,
        error: Optional[str] = None,
        app_payload: object = None,
        extra_bytes: int = 0,
        category: str = "lookup",
        op_tag: Optional[int] = None,
    ) -> None:
        size = MIN_RPC_BYTES + extra_bytes
        payload: object = None
        if ok and entries is not None:
            payload = self._package_result(list(entries), params)
            size += len(entries) * entry_bytes() + self._result_extra_bytes()
        result_params = {
            "token": params["token"],
            "ok": ok,
            "payload": payload,
            "app_payload": app_payload,
            "error": error,
            "hops": params["hops"],
            "size": size,
        }
        if params["style"] is LookupStyle.TRANSITIVE:
            dst = params.get("origin")
            if dst is None:
                return
        else:
            dst = upstream
        self.rpc.send_one_way(dst, "route_result", result_params, size, category, op_tag)

    def _h_route_result(self, request, msg) -> None:
        # Fast handler: (request, msg), no RpcContext; route_result is
        # always one-way, so there is nothing to ack.
        params = request.params
        token = params["token"]
        state = self._lookups.get(token)
        if state is not None:
            self._initiator_result(state, params)
            return
        fwd = self._forwards.pop(token, None)
        if fwd is None:
            return  # stale / GC'ed
        fwd.gc_handle.cancel()
        self.rpc.send_one_way(
            fwd.upstream,
            "route_result",
            params,
            params.get("size", MIN_RPC_BYTES),
            msg.category,
            msg.op_tag,
        )

    def _initiator_result(self, state: _PendingLookup, params: dict) -> None:
        if not params.get("ok"):
            error = params.get("error")
            if error is not None and error.startswith("shed:"):
                # Admission shed: a definitive rejection (backpressure),
                # not a transient failure — fail fast, never retry.
                self._finish(state, None, error=error)
                return
            if state.attempts > self.config.lookup_retries:
                self._finish(state, None, error=params.get("error") or "failed")
            else:
                self._retry(state)
            return
        try:
            entries = self._unpackage_result(params["payload"])
        except Exception:
            self._finish(state, None, error="unreadable result")
            return
        self._finish(
            state,
            entries,
            hops=params.get("hops", 0),
            app_payload=params.get("app_payload"),
        )

    def _gc_forward(self, token: tuple) -> None:
        self._forwards.pop(token, None)
