"""Containment sizing: how many sections keep neighbour lists safe?

Verme's guarantee is conditional (paper §4.3): successor lists must not
span more than two sections, which holds "with high probability" when
sections are sized against the successor-list length.  This module
provides the sizing rule an operator should apply when picking the
number of sections.

The invariant itself is
:func:`repro.invariants.predicates.containment_violations`, shared with
the online checker (``runner.py ... --invariants``); see
``docs/correctness.md`` for how it composes with the rest of the
invariant suite.
"""

from __future__ import annotations

import math

__all__ = [
    "max_safe_neighbor_list",
    "min_safe_sections",
]


def max_safe_neighbor_list(
    expected_nodes: int, num_sections: int, slack: float = 0.5
) -> int:
    """The longest successor/predecessor list that keeps lists within
    two sections for a *typical* section.

    A section holds ``expected_nodes / num_sections`` nodes on average;
    a list of length L starting anywhere inside a section stays within
    that section plus the next as long as L is comfortably below the
    per-section population.  ``slack`` is the safety factor (0.5 means
    "half the average section").
    """
    if num_sections <= 0 or expected_nodes <= 0:
        raise ValueError("population and section count must be positive")
    per_section = expected_nodes / num_sections
    return max(1, math.floor(per_section * slack))


def min_safe_sections(
    expected_nodes: int, neighbor_list_length: int, slack: float = 0.5
) -> int:
    """Largest power-of-two section count that keeps a neighbour list of
    the given length safe under the same sizing rule."""
    if neighbor_list_length <= 0:
        raise ValueError("list length must be positive")
    per_section_needed = neighbor_list_length / slack
    raw = max(1, int(expected_nodes / per_section_needed))
    # Round down to a power of two (section counts are powers of two).
    return 1 << (raw.bit_length() - 1)
