"""Columnar engine rows as DHT-layer hosts: fig6/fig7 at scale.

The four DHT layers (:class:`~repro.dht.dhash.DHashNode` and the three
VerDi variants) attach to an overlay node through a narrow surface:
identity (``node_id``/``info``/``cert``), routing-table views
(``successors``/``predecessors``/``fingers``), the real RPC layer for
data-plane traffic, and ``node.lookup``.  This module bridges that
surface onto :class:`~repro.chord.columnar.ColumnarEngine` rows so the
DHT layer code runs *unchanged* over the flat-array engine:

* Every row gets a :class:`ColumnarNodeAdapter` owning a **real**
  :class:`~repro.chord.rpc.RpcLayer` registered on the real network at
  the row's address.  All data-plane traffic (fetch/store/offer/relay)
  therefore flows through the exact object-engine code path — identical
  messages, identical timeout handles, identical sequence numbers.
* Only the control plane is columnar: ``adapter.lookup`` enters the
  engine's flat lookup state machine (kind ``CB``), and the engine's
  hook points (``_dht_hook``/``_verify_dht``/``_hook_local``/
  ``_hook_terminal``) route terminal-node work back to the unchanged
  layer callbacks, converting ``(node_id, row)`` routing entries to
  :class:`~repro.chord.state.NodeInfo` at the boundary.
* Certificates are real :class:`~repro.crypto.certificates`
  objects issued by a per-engine CA.  Key generation draws no RNG (a
  global counter), so issuing them after ``build`` leaves the registry
  streams bit-identical to the object path, where the factory issues
  them interleaved with id draws.

The result (asserted in ``tests/test_fig567_columnar_equivalence.py``)
is that fig6/fig7 cells produce bit-identical latency/bandwidth rows
and kernel event counts on both engines.
"""

from __future__ import annotations

from typing import List, Optional

from ..crypto.certificates import CertificateAuthority
from ..ids.assignment import NodeType
from ..net.addressing import NodeAddress
from ..sim import RngRegistry
from .columnar import _K_CB, ColumnarEngine
from .lookup import LookupPurpose, LookupResult, LookupStyle
from .rpc import RpcLayer
from .state import NodeInfo


class _NeighborView:
    """Read-only stand-in for :class:`~repro.chord.state.NeighborList`
    over one row's successor or predecessor array."""

    __slots__ = ("_engine", "_row", "_succ")

    def __init__(self, engine: "ColumnarDhtEngine", row: int, succ: bool) -> None:
        self._engine = engine
        self._row = row
        self._succ = succ

    def _entries(self) -> list:
        engine = self._engine
        arr = engine.succs[self._row] if self._succ else engine.preds[self._row]
        return arr

    @property
    def entries(self) -> List[NodeInfo]:
        engine = self._engine
        return [engine.info_of(e[1]) for e in self._entries()]

    @property
    def first(self) -> Optional[NodeInfo]:
        arr = self._entries()
        return self._engine.info_of(arr[0][1]) if arr else None


class _FingerView:
    """Read-only stand-in for :class:`~repro.chord.state.FingerTable`."""

    __slots__ = ("_engine", "_row")

    def __init__(self, engine: "ColumnarDhtEngine", row: int) -> None:
        self._engine = engine
        self._row = row

    def entries(self) -> List[NodeInfo]:
        engine = self._engine
        return [
            engine.info_of(e[1]) for e in engine.fingers[self._row].values()
        ]


class ColumnarNodeAdapter:
    """One engine row dressed as the node surface the DHT layers use."""

    def __init__(self, engine: "ColumnarDhtEngine", row: int) -> None:
        self._engine = engine
        self.row = row
        self.sim = engine._sim
        self.config = engine._config
        self.space = self.config.space
        self.node_id = engine.node_id[row]
        self.address = NodeAddress(engine.host[row], engine.inc[row])
        # The engine drew the two timer phases from this stream at build.
        self._jitter_rng = engine.jitter_stream(row)
        self._jitter_rng.random()
        self._jitter_rng.random()
        self._self_info = NodeInfo(self.node_id, self.address)
        self.layout = engine._layout
        if engine.certs is not None:
            self.cert = engine.certs[row]
            self.keys = engine.keypairs[row]
            self.ca = engine.ca
        else:
            self.cert = None
            self.keys = None
            self.ca = None
        # Layer-installed hooks (same attributes ChordNode carries).
        self.verify_dht_lookup = None
        self.dht_lookup_hook = None
        # The real RPC layer, constructed exactly as ChordNode does, so
        # data-plane traffic is object-engine code end to end.
        config = self.config
        self.rpc = RpcLayer(
            self.sim,
            engine._net,
            self.address,
            config.rpc_timeout_s,
            max_retransmits=config.rpc_max_retransmits,
            backoff_factor=config.rpc_backoff_factor,
            backoff_jitter=config.rpc_backoff_jitter,
            jitter_rng=self._jitter_rng,
        )
        self.rpc.start()
        self.successors = _NeighborView(engine, row, True)
        self.predecessors = _NeighborView(engine, row, False)
        self.fingers = _FingerView(engine, row)

    # -- identity ----------------------------------------------------------

    @property
    def info(self) -> NodeInfo:
        return self._self_info

    @property
    def alive(self) -> bool:
        return bool(self._engine.alive[self.row])

    @property
    def predecessor(self) -> Optional[NodeInfo]:
        preds = self._engine.preds[self.row]
        return self._engine.info_of(preds[0][1]) if preds else None

    @property
    def node_type(self) -> NodeType:
        return self.cert.claimed_type

    def __repr__(self) -> str:
        return f"<ColumnarNodeAdapter {self.node_id:#x} at {self.address}>"

    # -- the lookup bridge -------------------------------------------------

    def lookup(
        self,
        key: int,
        on_done,
        style: Optional[LookupStyle] = None,
        purpose: LookupPurpose = LookupPurpose.DHT,
        category: Optional[str] = None,
        op_tag: Optional[int] = None,
        request_meta: Optional[dict] = None,
        extra_request_bytes: int = 0,
        first_hop=None,
    ) -> None:
        """Enter the engine's flat lookup state machine; ``on_done``
        receives the same :class:`LookupResult` the object node builds."""
        if first_hop is not None:
            raise ValueError("adapter lookups do not support first_hop")
        engine = self._engine
        if category is None:
            category = "lookup" if purpose is LookupPurpose.DHT else "maintenance"

        def _deliver(st, success, entries, latency, hops, error, app_payload):
            result = LookupResult.__new__(LookupResult)
            result.key = st.key
            result.success = success
            if entries:
                if type(entries[0]) is NodeInfo:
                    result.entries = list(entries)
                else:
                    result.entries = [engine.info_of(e[1]) for e in entries]
            else:
                result.entries = []
            result.latency_s = latency
            result.hops = hops
            result.retries = st.attempts - 1
            result.error = error
            result.app_payload = app_payload
            on_done(result)

        engine._lookup(
            self.row,
            key,
            _K_CB,
            purpose,
            category,
            op_tag=op_tag,
            meta=request_meta,
            extra=extra_request_bytes,
            style=style,
            done_cb=_deliver,
        )


class ColumnarDhtEngine(ColumnarEngine):
    """Columnar engine plus the per-row adapters the DHT layers attach
    to, as ``nodes`` (the object ring's attribute for its DHT hosts).
    Its ``build`` also dresses every row as a DHT host."""

    def __init__(self, sim, network, config, layout=None) -> None:
        super().__init__(sim, network, config, layout)
        self.nodes: List[ColumnarNodeAdapter] = []
        self.ca: Optional[CertificateAuthority] = None
        self.certs: Optional[list] = None
        self.keypairs: Optional[list] = None

    def build(self, num_nodes: int, rngs: RngRegistry) -> None:
        """Build the flat overlay, then dress every row: issue real
        certificates (Verme) and create the adapters with their RPC
        layers.  Certificate issue draws no RNG, so doing it after the
        id draws leaves every stream identical to the object factory's
        interleaved order."""
        super().build(num_nodes, rngs)
        if self._verme:
            self.ca = CertificateAuthority()
            self.certs = []
            self.keypairs = []
            for row in range(num_nodes):
                cert, keys = self.ca.issue(
                    self.node_id[row], NodeType(self.host[row] % 2)
                )
                self.certs.append(cert)
                self.keypairs.append(keys)
        self.nodes = [ColumnarNodeAdapter(self, row) for row in range(num_nodes)]

    # -- engine hook points ------------------------------------------------

    def _dht_hook(self, row: int):
        return self.nodes[row].dht_lookup_hook

    def _verify_dht(self, term_row: int, init_row: int, key: int, meta):
        fn = self.nodes[term_row].verify_dht_lookup
        if fn is None:
            return None
        # The object node hands the layer the initiator's (already
        # CA-validated) certificate plus the request params; the layers
        # only consult params["meta"].
        return fn(self.certs[init_row], key, {"key": key, "meta": meta})

    def _hook_local(self, st, hook, entries) -> None:
        # Mirrors ChordNode._complete_local's hook branch: the hook sees
        # NodeInfo entries; its ``done`` finishes the lookup with the
        # *unsuppressed* entry list and the hook's payload.
        infos = [self.info_of(e[1]) for e in entries]

        def done(app_payload, _extra: int) -> None:
            self._finish(st, infos, 0, None, app_payload)

        hook(st.key, st.meta, infos, done)

    def _hook_terminal(self, row, params, upstream, hook, entries, category, op_tag):
        # Mirrors ChordNode._terminate_route's hook branch, including
        # Secure-VerDi's suppress_entries (the result then carries an
        # empty — but non-None — entry list, which still pays the
        # per-result sealing overhead, as in the object path).
        infos = [self.info_of(e[1]) for e in entries]
        meta = params[5]

        def done(app_payload, extra_bytes: int) -> None:
            returned = [] if (meta or {}).get("suppress_entries") else infos
            self._send_result_back(
                row, params, upstream, True, returned, None,
                app_payload, extra_bytes, category, op_tag,
            )

        hook(params[0], meta, infos, done)
