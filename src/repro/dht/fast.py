"""Fast-VerDi (paper §5.3.1): lookup, then direct download/upload.

The client looks up the replica group of the *opposite* type (the
lookup key is displaced by one section length when needed), the
responsible node verifies the initiator's certificate is of the
opposite type before answering, and the reply — like the fetched value
itself — is sealed with the initiator's public key.  Puts additionally
pay a synchronous copy to the other-type replica group before the
acknowledgement (so the data becomes reachable for clients of both
types).  Fastest of the three variants, but vulnerable to the
impersonation attack the worm experiments quantify.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..chord.lookup import LookupResult
from ..chord.rpc import MIN_RPC_BYTES
from ..crypto.certificates import NodeCertificate
from ..crypto.sealed import seal
from ..ids.assignment import NodeType
from ..net.message import CERT_BYTES, ID_BYTES, SEALED_OVERHEAD_BYTES
from .base import OpResult, _Op
from .verdi import VerDiNode


class FastVerDiNode(VerDiNode):
    """Fast-VerDi attached to one Verme node."""

    def _install_hooks(self) -> None:
        self.node.verify_dht_lookup = self._verify_dht_lookup

    # -- lookup verification (responsible-node side) ---------------------------

    def _verify_dht_lookup(
        self, cert: NodeCertificate, key: int, params: dict
    ) -> Optional[str]:
        """The replier checks that the initiator is of the opposite type
        of the addresses being returned, "dropping the message
        otherwise" (§5.3.1)."""
        if NodeType(self.layout.type_of(key)) is cert.claimed_type:
            return "initiator type matches replica type"
        return None

    # -- fetch authorization and sealing ------------------------------------------

    def _authorize_fetch(self, params: dict) -> Optional[str]:
        cert = params.get("cert")
        if cert is None:
            return "missing certificate"
        node = self.node
        if not node.ca.verify(cert):
            return "invalid certificate"
        if cert.claimed_type is node.node_type:
            return "same-type fetch rejected"
        return None

    def _package_value(self, value: bytes, params: dict) -> object:
        cert: NodeCertificate = params["cert"]
        return seal(cert.public_key, value)

    def _unpackage_value(self, payload: object) -> bytes:
        return payload.open(self.node.keys)  # type: ignore[union-attr]

    def _fetch_request_bytes(self) -> int:
        return MIN_RPC_BYTES + ID_BYTES + CERT_BYTES

    def _value_reply_bytes(self, value: bytes) -> int:
        return MIN_RPC_BYTES + len(value) + SEALED_OVERHEAD_BYTES

    # -- client operations: reusable engines ------------------------------------------
    # (Compromise-VerDi relays drive the same engines with a foreign tag.)

    def fast_get(self, key: int, op_tag: int, on_done: Callable[[OpResult], None]) -> None:
        op = _Op("get", key, op_tag, on_done, self.node.sim.now)
        self._lookup_then(op, self.adjusted_key(key), self._get_entries)

    def fast_put(
        self, value: bytes, key: int, op_tag: int, on_done: Callable[[OpResult], None]
    ) -> None:
        op = _Op("put", key, op_tag, on_done, self.node.sim.now, value=value)
        self._lookup_then(op, self.adjusted_key(key), self._put_entries)

    def _start_get(self, op: _Op) -> None:
        self._lookup_then(op, self.adjusted_key(op.key), self._get_entries)

    def _start_put(self, op: _Op) -> None:
        self._lookup_then(op, self.adjusted_key(op.key), self._put_entries)

    def _fetch_params_extra(self) -> dict:
        return {"cert": self.node.cert}

    def _get_entries(self, op: _Op, res: LookupResult) -> None:
        if not res.success or not res.entries:
            self._finish(op, False, error=res.error or "lookup failed")
            return
        op.targets = list(res.entries)
        self._fetch_from(op, params_extra=self._fetch_params_extra())

    def _put_entries(self, op: _Op, res: LookupResult) -> None:
        if not res.success or not res.entries:
            self._finish(op, False, error=res.error or "lookup failed")
            return
        op.targets = list(res.entries)
        self._store_next(op)

    def _store_next(self, op: _Op) -> None:
        if not op.targets:
            self._finish(op, False, error="no responsible node accepted the block")
            return
        target = op.targets.pop(0)
        assert op.value is not None
        self.node.rpc.call(
            target.address,
            "dht_store",
            {"key": op.key, "value": op.value, "cross_copy": True},
            on_reply=lambda res: self._finish(op, True, value=op.value),
            on_error=lambda err: self._store_next(op),
            timeout_s=self.node.config.lookup_timeout_s,
            size=self._store_request_bytes(op.value),
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
        )
