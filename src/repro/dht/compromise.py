"""Compromise-VerDi (paper §5.3.3): one level of indirection.

The initiator signs a statement vouching for the operation and hands
the request to one of its finger-table entries, which acts as a relay:
it appends its own certificate, performs the operation exactly like
Fast-VerDi, and forwards the result back.  A compromised node can no
longer harvest addresses by *issuing* operations (its relay does the
address-bearing part), but an impersonating node that happens to be
some honest node's finger can still *passively* record the initiators
that relay through it — the leak the Fig. 8 worm experiment drives.
"""

from __future__ import annotations

from typing import Optional

from ..chord.rpc import MIN_RPC_BYTES, RpcContext
from ..chord.state import NodeInfo
from ..net.message import CERT_BYTES, ID_BYTES, SIGNATURE_BYTES
from .base import OpResult, _Op
from .fast import FastVerDiNode


class CompromiseVerDiNode(FastVerDiNode):
    """Compromise-VerDi attached to one Verme node."""

    def __init__(self, node, config) -> None:
        super().__init__(node, config)
        node.rpc.register("verdi_relay", self._h_relay)
        self.relayed_operations = 0

    # -- relay selection ----------------------------------------------------------

    def _pick_relay(self, key: int) -> Optional[NodeInfo]:
        """The "appropriate finger table entry": the finger closest-
        preceding the (adjusted) replica position of the key."""
        node = self.node
        target = self.adjusted_key(key)
        best: Optional[NodeInfo] = None
        best_dist = -1
        for info in node.fingers.entries():
            if node.space.in_open(info.node_id, node.node_id, target):
                dist = node.space.distance(node.node_id, info.node_id)
                if dist > best_dist:
                    best, best_dist = info, dist
        if best is not None:
            return best
        fingers = node.fingers.entries()
        return fingers[0] if fingers else None

    # -- client operations ----------------------------------------------------------

    def _start_get(self, op: _Op) -> None:
        self._via_relay(op)

    def _start_put(self, op: _Op) -> None:
        self._via_relay(op)

    def _via_relay(self, op: _Op) -> None:
        relay = self._pick_relay(op.key)
        if relay is None:
            # Degenerate overlay (no fingers yet): fall back to the
            # direct Fast-VerDi engine rather than failing the client.
            if op.op == "get":
                self._lookup_then(op, self.adjusted_key(op.key), self._get_entries)
            else:
                self._lookup_then(op, self.adjusted_key(op.key), self._put_entries)
            return
        params = {
            "op": op.op,
            "key": op.key,
            "cert": self.node.cert,
            "statement": ("vouch", self.node.node_id, op.op, op.key),
        }
        size = MIN_RPC_BYTES + ID_BYTES + CERT_BYTES + SIGNATURE_BYTES
        if op.op == "put":
            assert op.value is not None
            params["value"] = op.value
            size += len(op.value)
        self.node.rpc.call(
            relay.address,
            "verdi_relay",
            params,
            on_reply=lambda res: self._relay_reply(op, res),
            on_error=lambda err: self._finish(op, False, error=f"relay failed: {err}"),
            timeout_s=self.node.config.lookup_timeout_s * 2,
            size=size,
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
        )

    def _relay_reply(self, op: _Op, res: dict) -> None:
        if not res.get("ok"):
            self._finish(op, False, error=res.get("error", "relay error"))
            return
        if op.op == "get":
            value = res.get("value")
            try:
                from .blocks import verify_block

                verify_block(self.space, op.key, value)
            except ValueError as exc:
                self._finish(op, False, error=str(exc))
                return
            self._finish(op, True, value=value)
        else:
            self._finish(op, True, value=op.value)

    # -- relay (server) side -----------------------------------------------------------

    def _h_relay(self, params: dict, ctx: RpcContext) -> None:
        cert = params.get("cert")
        if cert is None or not self.node.ca.verify(cert):
            ctx.fail("invalid initiator certificate")
            return
        if params.get("statement") is None:
            ctx.fail("missing signed statement")
            return
        self.relayed_operations += 1
        op_name, key = params["op"], params["key"]
        if op_name == "get":
            self.fast_get(key, ctx.op_tag, lambda r: self._relay_done(ctx, r))
        elif op_name == "put":
            self.fast_put(
                params["value"], key, ctx.op_tag, lambda r: self._relay_done(ctx, r)
            )
        else:
            ctx.fail(f"unknown relayed op {op_name!r}")

    def _relay_done(self, ctx: RpcContext, result: OpResult) -> None:
        if not result.ok:
            ctx.respond({"ok": False, "error": result.error})
            return
        size = MIN_RPC_BYTES
        reply = {"ok": True}
        if result.op == "get" and result.value is not None:
            reply["value"] = result.value
            size += len(result.value)
        ctx.respond(reply, size=size)
