"""DHash: the baseline DHT over Chord lookups (paper §5.1).

``put`` looks up the key's successor list and stores the block on the
first responsible node, which acknowledges immediately and replicates
to the remaining *n-1* successors in the background.  ``get`` looks up
the successor list and downloads from the first replica that answers,
verifying the content hash.  Lookups are recursive followed by a
direct transfer — the paper notes Fast-VerDi "works very similarly".
"""

from __future__ import annotations

from typing import List

from ..chord.lookup import LookupResult
from ..chord.state import NodeInfo
from .base import DhtNode, _Op


class DHashNode(DhtNode):
    """DHash attached to one Chord (or Verme) node."""

    # -- replica maintenance ---------------------------------------------------

    def _local_group_view(self, key: int) -> List[NodeInfo]:
        node = self.node
        pred = node.predecessor
        if pred is not None and node.space.in_half_open(
            key, pred.node_id, node.node_id
        ):
            return [node.info] + node.successors.entries[
                : self.config.num_replicas - 1
            ]
        # Not provably the owner: stay quiet and let the owner push.
        return []

    # -- client operations --------------------------------------------------------

    def _start_put(self, op: _Op) -> None:
        self._lookup_then(op, op.key, self._put_entries)

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
            {"key": op.key, "value": op.value, "replicate": True},
            on_reply=lambda res: self._finish(op, True, value=op.value),
            on_error=lambda err: self._store_next(op),
            timeout_s=self._data_timeout_s(),
            size=self._store_request_bytes(op.value),
            category=self.DATA_CATEGORY,
            op_tag=op.op_tag,
        )

    def _start_get(self, op: _Op) -> None:
        self._lookup_then(op, op.key, self._get_entries)

    def _get_entries(self, op: _Op, res: LookupResult) -> None:
        if not res.success or not res.entries:
            self._finish(op, False, error=res.error or "lookup failed")
            return
        op.targets = list(res.entries)
        self._fetch_from(op)
