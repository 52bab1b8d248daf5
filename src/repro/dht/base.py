"""Shared machinery for the DHash and VerDi DHT layers.

A DHT layer object attaches to one overlay node: it owns the node's
block store, registers the data-plane RPC handlers (fetch/store/offer),
runs background replica maintenance, and exposes the client-side
``get``/``put`` operations.  Subclasses implement the paper's four
designs: DHash (baseline, §5.1), Fast-VerDi, Secure-VerDi and
Compromise-VerDi (§5.3).

Every client operation is tagged; the network's byte accounting
attributes each message carrying the tag to that operation, which is
how the Fig. 7 bandwidth numbers are produced (background replication
is deliberately untagged — the paper excludes it too).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..chord.lookup import LookupPurpose, LookupResult
from ..chord.node import ChordNode
from ..chord.rpc import MIN_RPC_BYTES, RpcContext
from ..chord.state import NodeInfo
from ..net.message import ID_BYTES
from ..obs import OBS
from ..sim import PeriodicTimer
from .blocks import BlockStore, block_key, verify_block


@dataclass(frozen=True)
class DhtConfig:
    """Knobs for the DHT layers.

    ``num_replicas`` is the paper's *n*: DHash places *n* replicas on
    the key's successors; VerDi splits them *n/2* + *n/2* across two
    opposite-type sections (§5.2).
    """

    num_replicas: int = 6
    stabilize_interval_s: float = 60.0
    fetch_retries: int = 3

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("need at least one replica")

    @property
    def replicas_per_section(self) -> int:
        return max(1, self.num_replicas // 2)


@dataclass(slots=True)
class OpResult:
    """Outcome of one client get/put as seen by the caller."""

    ok: bool
    op: str
    key: int
    op_tag: int
    value: Optional[bytes] = None
    latency_s: float = 0.0
    error: Optional[str] = None


OpCallback = Callable[[OpResult], None]

_op_tags = itertools.count(1)


def next_op_tag() -> int:
    """Globally unique tag attributing messages to one DHT operation."""
    return next(_op_tags)


@dataclass(slots=True)
class _Op:
    op: str
    key: int
    op_tag: int
    on_done: OpCallback
    started_at: float
    value: Optional[bytes] = None
    targets: List[NodeInfo] = field(default_factory=list)
    attempts: int = 0


class DhtNode:
    """Base class: block store, data-plane handlers, maintenance."""

    #: category used for client-visible data traffic
    DATA_CATEGORY = "data"
    #: category for background replica maintenance (untagged)
    REPLICATION_CATEGORY = "replication"

    def __init__(self, node: ChordNode, config: DhtConfig) -> None:
        self.node = node
        self.config = config
        self.store = BlockStore(node.space)
        self.space = node.space
        self._maintenance = PeriodicTimer(
            node.sim,
            config.stabilize_interval_s,
            self._data_stabilize,
            jitter_rng=getattr(node, "_jitter_rng", None),
        )
        node.rpc.register("dht_fetch", self._h_fetch)
        node.rpc.register("dht_store", self._h_store)
        node.rpc.register("dht_offer", self._h_offer)
        self._install_hooks()

    def _install_hooks(self) -> None:
        """Subclasses wire node-level hooks (lookup verification etc.)."""

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._maintenance.start()

    def stop(self) -> None:
        self._maintenance.stop()

    # -- public client API ------------------------------------------------------

    def put(self, value: bytes, on_done: OpCallback) -> int:
        """Store ``value``; the key (its content hash) is returned
        immediately and ``on_done`` fires when the operation completes."""
        key = block_key(self.space, value)
        op = _Op("put", key, next_op_tag(), on_done, self.node.sim.now, value=value)
        self._start_put(op)
        return key

    def get(self, key: int, on_done: OpCallback) -> int:
        """Retrieve the value stored under ``key``."""
        op = _Op("get", key, next_op_tag(), on_done, self.node.sim.now)
        self._start_get(op)
        return op.op_tag

    def _start_put(self, op: _Op) -> None:
        raise NotImplementedError

    def _start_get(self, op: _Op) -> None:
        raise NotImplementedError

    def _finish(self, op: _Op, ok: bool, value: Optional[bytes] = None,
                error: Optional[str] = None) -> None:
        latency = self.node.sim.now - op.started_at
        result = OpResult(
            ok=ok,
            op=op.op,
            key=op.key,
            op_tag=op.op_tag,
            value=value,
            latency_s=latency,
            error=error,
        )
        metrics = OBS.metrics
        if metrics is not None:
            metrics.counter(f"dht.{op.op}.{'ok' if ok else 'fail'}").inc()
            metrics.histogram(f"dht.{op.op}.latency_s").observe(latency)
        trace = OBS.trace
        if trace is not None:
            trace.complete(
                "dht." + op.op,
                op.started_at,
                latency,
                lane="dht",
                args={"tag": op.op_tag, "ok": ok, "error": error},
            )
        self.node.sim.call_after(0.0, op.on_done, result)

    # -- wire sizes ----------------------------------------------------------------

    def _data_timeout_s(self) -> float:
        """Timeout for data-plane RPCs: bulk transfers over slow access
        uplinks take far longer than control messages."""
        return self.node.config.lookup_timeout_s


    def _fetch_request_bytes(self) -> int:
        return MIN_RPC_BYTES + ID_BYTES

    def _store_request_bytes(self, value: bytes) -> int:
        return MIN_RPC_BYTES + ID_BYTES + len(value)

    def _value_reply_bytes(self, value: bytes) -> int:
        return MIN_RPC_BYTES + len(value)

    # -- data-plane handlers ----------------------------------------------------------

    def _authorize_fetch(self, params: dict) -> Optional[str]:
        """Reject a fetch (return an error string) or allow (None)."""
        return None

    def _package_value(self, value: bytes, params: dict) -> object:
        return value

    def _h_fetch(self, params: dict, ctx: RpcContext) -> None:
        err = self._authorize_fetch(params)
        if err is not None:
            ctx.fail(err)
            return
        value = self.store.get(params["key"])
        if value is None:
            ctx.respond({"found": False})
            return
        ctx.respond(
            {"found": True, "value": self._package_value(value, params)},
            size=self._value_reply_bytes(value),
        )

    def _h_store(self, params: dict, ctx: RpcContext) -> None:
        key, value = params["key"], params["value"]
        try:
            self.store.put(key, value)
        except ValueError as exc:
            ctx.fail(str(exc))
            return
        if params.get("replicate", True):
            self.node.sim.call_after(0.0, self._replicate_key, key)
        ctx.respond({})

    def _h_offer(self, params: dict, ctx: RpcContext) -> None:
        keys = params["keys"]
        want = self.store.missing(keys)
        ctx.respond({"want": want}, size=MIN_RPC_BYTES + len(want) * ID_BYTES)

    # -- replica maintenance -------------------------------------------------------------

    def _local_group_view(self, key: int) -> List[NodeInfo]:
        """This node's best local guess at the replica group of ``key``
        (empty when the node cannot tell it is a member)."""
        raise NotImplementedError

    def _replicate_key(self, key: int) -> None:
        """Push a freshly stored key to the rest of its replica group."""
        value = self.store.get(key)
        if value is None or not self.node.alive:
            return
        for info in self._local_group_view(key):
            if info.node_id == self.node.node_id:
                continue
            self.node.rpc.call(
                info.address,
                "dht_store",
                {"key": key, "value": value, "replicate": False},
                timeout_s=self._data_timeout_s(),
                size=self._store_request_bytes(value),
                category=self.REPLICATION_CATEGORY,
            )

    def _data_stabilize(self) -> None:
        """Periodic sync: offer each held key to the group members the
        node currently believes should hold it; push what they lack."""
        if not self.node.alive:
            return
        by_target: Dict[NodeInfo, List[int]] = {}
        for key in self.store.keys():
            for info in self._local_group_view(key):
                if info.node_id != self.node.node_id:
                    by_target.setdefault(info, []).append(key)
        for info, keys in by_target.items():
            self.node.rpc.call(
                info.address,
                "dht_offer",
                {"keys": keys},
                on_reply=lambda res, i=info: self._push_wanted(i, res.get("want", [])),
                size=MIN_RPC_BYTES + len(keys) * ID_BYTES,
                category=self.REPLICATION_CATEGORY,
            )

    def _push_wanted(self, info: NodeInfo, keys: List[int]) -> None:
        if not self.node.alive:
            return
        for key in keys:
            value = self.store.get(key)
            if value is None:
                continue
            self.node.rpc.call(
                info.address,
                "dht_store",
                {"key": key, "value": value, "replicate": False},
                timeout_s=self._data_timeout_s(),
                size=self._store_request_bytes(value),
                category=self.REPLICATION_CATEGORY,
            )

    # -- client-side helpers ------------------------------------------------------------

    def _fetch_from(self, op: _Op, params_extra: Optional[dict] = None) -> None:
        """Try the next target in ``op.targets`` until one returns the
        value (verified against the key) or targets are exhausted."""
        if not op.targets:
            self._finish(op, False, error="no replica answered")
            return
        target = op.targets.pop(0)
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "dht.fetch-phase",
                self.node.sim.now,
                lane="dht",
                args={
                    "tag": op.op_tag,
                    "dst": target.address.host_slot,
                    "attempt": op.attempts,
                },
            )
        params = {"key": op.key}
        if params_extra:
            params.update(params_extra)
        self.node.rpc.call(
            target.address,
            "dht_fetch",
            params,
            on_reply=lambda res: self._fetch_reply(op, res),
            on_error=lambda err: self._fetch_from(op, params_extra),
            timeout_s=self._data_timeout_s(),
            size=self._fetch_request_bytes(),
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
        )

    def _unpackage_value(self, payload: object) -> bytes:
        return payload  # type: ignore[return-value]

    def _fetch_reply(self, op: _Op, res: dict) -> None:
        if not res.get("found"):
            self._fetch_from(op)
            return
        try:
            value = self._unpackage_value(res["value"])
            verify_block(self.space, op.key, value)
        except Exception as exc:
            self._finish(op, False, error=str(exc))
            return
        self._finish(op, True, value=value)

    def _lookup_then(
        self,
        op: _Op,
        key: int,
        on_entries: Callable[[_Op, LookupResult], None],
        request_meta: Optional[dict] = None,
        extra_request_bytes: int = 0,
    ) -> None:
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "dht.lookup-phase",
                self.node.sim.now,
                lane="dht",
                args={"tag": op.op_tag, "op": op.op},
            )
        self.node.lookup(
            key,
            on_done=lambda res: on_entries(op, res),
            purpose=LookupPurpose.DHT,
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
            request_meta=request_meta,
            extra_request_bytes=extra_request_bytes,
        )
