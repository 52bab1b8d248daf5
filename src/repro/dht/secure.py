"""Secure-VerDi (paper §5.3.2): operations piggybacked on the lookup.

The get/put request rides inside the recursive lookup all the way to
the responsible node; the data travels back (or forward, for puts)
along the lookup path, hop by hop.  No replica address is ever
disclosed to the initiator, so an impersonating node can at most reach
the O(log N) sections its own routing entries point at — the paper's
containment bound for this variant.  The price is a data transfer on
every hop (Figs. 6-7).

Because clients never contact replicas directly, data does not need to
be replicated in two sections (§5.3.2): all *n* replicas live on the
key's own section.
"""

from __future__ import annotations

from typing import List, Optional

from ..chord.lookup import LookupResult
from ..chord.state import NodeInfo
from ..crypto.certificates import NodeCertificate
from .base import _Op
from .verdi import VerDiNode


class SecureVerDiNode(VerDiNode):
    """Secure-VerDi attached to one Verme node."""

    def _install_hooks(self) -> None:
        self.node.verify_dht_lookup = self._verify_dht_lookup
        self.node.dht_lookup_hook = self._responsible_hook

    def _group_size(self) -> int:
        # Single-section replication: the full n replicas (§5.3.2).
        return self.config.num_replicas

    def position_for_me(self, key: int) -> Optional[int]:
        # Only the key's own section hosts replicas in this variant.
        my_section = self.layout.section_index(self.node.node_id)
        if self.layout.section_index(key) == my_section:
            return key
        return None

    # -- responsible-node side -------------------------------------------------

    def _verify_dht_lookup(
        self, cert: NodeCertificate, key: int, params: dict
    ) -> Optional[str]:
        meta = params.get("meta")
        if not meta or not meta.get("suppress_entries"):
            # Raw (address-returning) DHT lookups do not exist in
            # Secure-VerDi; everything must be a piggybacked operation.
            return "secure-verdi only serves piggybacked operations"
        return None

    def _responsible_hook(self, key, meta, entries, done) -> None:
        op_name = meta.get("op")
        if op_name == "get":
            self._serve_get(key, meta, entries, done)
        elif op_name == "put":
            self._serve_put(key, meta, entries, done)
        else:
            done({"error": f"unknown piggybacked op {op_name!r}"}, 0)

    def _serve_get(self, key: int, meta: dict, entries: List[NodeInfo], done) -> None:
        value = self.store.get(key)
        if value is not None:
            done({"found": True, "value": value}, len(value))
            return
        # "One of the replicas is chosen to retrieve the data": ask the
        # replica group before reporting a miss.
        targets = [e for e in entries if e.node_id != self.node.node_id]
        self._relay_fetch(key, meta, targets, done)

    def _relay_fetch(self, key: int, meta: dict, targets: List[NodeInfo], done) -> None:
        if not targets:
            done({"found": False}, 0)
            return
        target = targets.pop(0)
        self.node.rpc.call(
            target.address,
            "dht_fetch",
            {"key": key},
            on_reply=lambda res: (
                done({"found": True, "value": res["value"]}, len(res["value"]))
                if res.get("found")
                else self._relay_fetch(key, meta, targets, done)
            ),
            on_error=lambda err: self._relay_fetch(key, meta, targets, done),
            timeout_s=self._data_timeout_s(),
            size=self._fetch_request_bytes(),
            category=self.DATA_CATEGORY,
            op_tag=meta.get("op_tag"),
        )

    def _serve_put(self, key: int, meta: dict, entries: List[NodeInfo], done) -> None:
        value = meta["value"]
        if entries and entries[0].node_id != self.node.node_id:
            # The terminating hop is the owner's predecessor: pass the
            # block the final hop to the owner, then acknowledge.
            target = entries[0]
            self.node.rpc.call(
                target.address,
                "dht_store",
                {"key": key, "value": value, "replicate": True},
                on_reply=lambda res: done({"stored": True}, 0),
                on_error=lambda err: done({"error": f"store failed: {err}"}, 0),
                timeout_s=self._data_timeout_s(),
                size=self._store_request_bytes(value),
                category=self.DATA_CATEGORY,
                op_tag=meta.get("op_tag"),
            )
            return
        try:
            self.store.put(key, value)
        except ValueError as exc:
            done({"error": str(exc)}, 0)
            return
        self.node.sim.schedule(0.0, self._replicate_key, key)
        done({"stored": True}, 0)

    # -- fetches between replicas (server side, same type, same section) --------------

    def _authorize_fetch(self, params: dict) -> Optional[str]:
        return None  # intra-group fetches carry no client certificate

    # -- client operations -----------------------------------------------------------

    def _start_get(self, op: _Op) -> None:
        meta = {"op": "get", "suppress_entries": True, "op_tag": op.op_tag}
        self._lookup_then(op, op.key, self._get_result, request_meta=meta)

    def _get_result(self, op: _Op, res: LookupResult) -> None:
        if not res.success:
            self._finish(op, False, error=res.error or "lookup failed")
            return
        payload = res.app_payload or {}
        if payload.get("error"):
            self._finish(op, False, error=payload["error"])
            return
        if not payload.get("found"):
            self._finish(op, False, error="not found")
            return
        value = payload["value"]
        try:
            from .blocks import verify_block

            verify_block(self.space, op.key, value)
        except ValueError as exc:
            self._finish(op, False, error=str(exc))
            return
        self._finish(op, True, value=value)

    def _start_put(self, op: _Op) -> None:
        assert op.value is not None
        meta = {
            "op": "put",
            "value": op.value,
            "suppress_entries": True,
            "op_tag": op.op_tag,
        }
        self._lookup_then(
            op,
            op.key,
            self._put_result,
            request_meta=meta,
            extra_request_bytes=len(op.value),
        )

    def _put_result(self, op: _Op, res: LookupResult) -> None:
        if not res.success:
            self._finish(op, False, error=res.error or "lookup failed")
            return
        payload = res.app_payload or {}
        if payload.get("stored"):
            self._finish(op, True, value=op.value)
        else:
            self._finish(op, False, error=payload.get("error", "store failed"))
