"""Reproduction of "Verme: Worm Containment in Overlay Networks" (DSN 2009).

The public surface re-exports the pieces a downstream user needs to
assemble simulations: the event kernel, network models, Chord and Verme
overlays, the DHash/VerDi DHT family, and the worm propagation model.
See README.md for a guided tour and DESIGN.md for the architecture.
"""

from .chord import (
    ChordNode,
    ChurnDriver,
    LookupPurpose,
    LookupResult,
    LookupStyle,
    LookupWorkload,
    NodeInfo,
    OverlayConfig,
    Population,
    instant_bootstrap,
)
from .crypto import CertificateAuthority, KeyPair, NodeCertificate
from .faults import FailureDetectorStats, FaultPlan, Partition
from .dht import (
    CompromiseVerDiNode,
    DHashNode,
    DhtConfig,
    FastVerDiNode,
    OpResult,
    SecureVerDiNode,
)
from .ids import IdSpace, NodeType, VermeIdLayout
from .net import ByteAccounting, Network, NodeAddress
from .overlay import StaticOverlay, VermeStaticOverlay
from .sim import RngRegistry, Simulator
from .verme import VermeNode
from .worm import WormParams, WormScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = [
    "ByteAccounting",
    "CertificateAuthority",
    "ChordNode",
    "ChurnDriver",
    "CompromiseVerDiNode",
    "DHashNode",
    "DhtConfig",
    "FailureDetectorStats",
    "FastVerDiNode",
    "FaultPlan",
    "IdSpace",
    "KeyPair",
    "LookupPurpose",
    "LookupResult",
    "LookupStyle",
    "LookupWorkload",
    "Network",
    "NodeAddress",
    "NodeCertificate",
    "NodeInfo",
    "NodeType",
    "OpResult",
    "OverlayConfig",
    "Partition",
    "Population",
    "RngRegistry",
    "SecureVerDiNode",
    "Simulator",
    "StaticOverlay",
    "VermeIdLayout",
    "VermeNode",
    "VermeStaticOverlay",
    "WormParams",
    "WormScenarioConfig",
    "instant_bootstrap",
    "run_scenario",
]
