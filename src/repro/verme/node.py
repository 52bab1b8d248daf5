"""The Verme protocol node (paper §4).

``VermeNode`` is a :class:`~repro.chord.node.ChordNode` with exactly the
paper's deltas:

* **id structure** — the node's id encodes its (claimed) type in the
  middle bits, so the ring partitions into type-alternating sections;
* **key ownership** — a key is owned by its successor only if that
  successor lies in the key's section; otherwise by the key's
  predecessor (the §4.4 corner rule);
* **fingers** — targets are displaced so every finger points at a node
  of the opposite type (:mod:`repro.verme.fingers`), and a same-type
  owner from a foreign section is refused (containment);
* **DHT results** — the in-section replica group (§5.2);
* **predecessor list** — maintained like the successor list (needed by
  VerDi's predecessor-side replication, §5.2);
* **lookups** — recursive only, carry the initiator's certificate, are
  verified for legitimacy by the responsible node, and the reply is
  sealed with the initiator's public key so intermediate hops never see
  the returned addresses (§4.5).

Ownership, the containment refusal, the replica group and the §4.5
purpose check are rules of :mod:`repro.chord.rules`, shared with the
columnar engine; this class supplies their Verme arguments (section
bits, type-field mask, finger-target test).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

from ..chord.config import OverlayConfig
from ..chord.lookup import LookupStyle
from ..chord.node import ChordNode
from ..chord.rules import purpose_error
from ..chord.state import NodeInfo
from ..crypto.certificates import CertificateAuthority, KeyPair, NodeCertificate
from ..crypto.sealed import SealError, seal
from ..ids.assignment import NodeType
from ..ids.sections import VermeIdLayout
from ..net.addressing import NodeAddress
from ..net.message import CERT_BYTES, SEALED_OVERHEAD_BYTES
from ..net.network import Network
from ..sim import Simulator
from .fingers import is_verme_finger_target, verme_finger_target

# A VerDi variant installs this to vet DHT lookups at the responsible
# node: (initiator certificate, key, request params) -> error or None.
DhtLookupVerifier = Callable[[NodeCertificate, int, dict], Optional[str]]


class VermeNode(ChordNode):
    """One Verme overlay node."""

    maintenance_style = LookupStyle.RECURSIVE
    allowed_styles = frozenset({LookupStyle.RECURSIVE})

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: OverlayConfig,
        layout: VermeIdLayout,
        cert: NodeCertificate,
        keys: KeyPair,
        ca: CertificateAuthority,
        address: NodeAddress,
        jitter_rng=None,
    ) -> None:
        if layout.space is not config.space and layout.space != config.space:
            raise ValueError("layout and config use different id spaces")
        if NodeType(layout.type_of(cert.node_id)) is not cert.claimed_type:
            raise ValueError(
                "certificate id does not encode the claimed type "
                f"(id type {layout.type_of(cert.node_id)}, "
                f"claimed {cert.claimed_type})"
            )
        self.layout = layout
        self.cert = cert
        self.keys = keys
        self.ca = ca
        self.verify_dht_lookup: Optional[DhtLookupVerifier] = None
        # The Verme arguments of repro.chord.rules: ``same_section(a, b)``
        # is an equality of the ids shifted right by ``section_bits``
        # (all protocol ids are range-validated at creation), and the
        # type field is the low bits of the section index.
        self._shift = layout.section_bits
        self._tmask = layout.num_types - 1
        self._is_finger_target = partial(is_verme_finger_target, layout)
        super().__init__(sim, network, config, cert.node_id, address, jitter_rng)

    # -- identity -------------------------------------------------------------

    @property
    def node_type(self) -> NodeType:
        """The type this node *claims* (an impersonator's true platform
        differs; see :attr:`cert`)."""
        return self.cert.claimed_type

    @property
    def section(self) -> int:
        return self.layout.section_index(self.node_id)

    def _predecessor_limit(self) -> int:
        return self.config.num_predecessors

    # -- fingers ----------------------------------------------------------------

    def finger_target(self, k: int) -> int:
        return verme_finger_target(self.layout, self.node_id, k)

    # -- lookup security (§4.5) -----------------------------------------------------

    def _attach_credentials(self, params: dict) -> None:
        params["cert"] = self.cert

    def _lookup_request_extra_bytes(self) -> int:
        return CERT_BYTES

    def _result_extra_bytes(self) -> int:
        return SEALED_OVERHEAD_BYTES

    def _verify_lookup(self, key: int, params: dict) -> Optional[str]:
        cert = params.get("cert")
        if cert is None:
            return "missing certificate"
        if not self.ca.verify(cert):
            return "invalid certificate"
        return purpose_error(
            params["purpose"], cert.node_id, key, self._is_finger_target,
            self.verify_dht_lookup, cert, key, params,
        )

    def _package_result(self, entries: List[NodeInfo], params: dict) -> object:
        cert: NodeCertificate = params["cert"]
        return seal(cert.public_key, list(entries))

    def _unpackage_result(self, payload: object) -> List[NodeInfo]:
        if not hasattr(payload, "open"):
            raise SealError("expected a sealed lookup result")
        return list(payload.open(self.keys))
