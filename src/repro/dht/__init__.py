"""DHT layers: DHash (baseline) and the three VerDi variants."""

from .base import DhtConfig, DhtNode, OpResult, next_op_tag
from .blocks import BlockStore, IntegrityError, block_key, verify_block
from .compromise import CompromiseVerDiNode
from .dhash import DHashNode
from .fast import FastVerDiNode
from .fragments import (
    Fragment,
    FragmentConfig,
    FragmentedDHashNode,
    ReassemblyError,
    fragment_value,
    reassemble,
)
from .secure import SecureVerDiNode
from .verdi import VerDiNode

__all__ = [
    "BlockStore",
    "CompromiseVerDiNode",
    "DHashNode",
    "DhtConfig",
    "DhtNode",
    "FastVerDiNode",
    "Fragment",
    "FragmentConfig",
    "FragmentedDHashNode",
    "ReassemblyError",
    "fragment_value",
    "reassemble",
    "IntegrityError",
    "OpResult",
    "SecureVerDiNode",
    "VerDiNode",
    "block_key",
    "next_op_tag",
    "verify_block",
]
