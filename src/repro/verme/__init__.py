"""Verme: the paper's worm-containing overlay (a Chord extension)."""

from .audit import max_safe_neighbor_list, min_safe_sections
from .fingers import is_verme_finger_target, verme_finger_target
from .node import VermeNode

__all__ = [
    "VermeNode",
    "is_verme_finger_target",
    "max_safe_neighbor_list",
    "min_safe_sections",
    "verme_finger_target",
]
