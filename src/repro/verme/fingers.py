"""Verme finger-target placement (paper §4.4).

A Chord finger ``k`` targets ``id + 2**k``.  Verme must guarantee that
every finger points at a node of the *opposite* type, so the raw target
is displaced by one section length whenever it would land in a section
of the node's own type — except for nearby targets that fall either in
the node's own section (same-island knowledge is allowed) or in the
subsequent section (already of the opposite type).

This function is deliberately free of protocol dependencies: the live
:class:`~repro.verme.node.VermeNode`, the static overlay builder used
for the 100k-node worm runs, and the lookup-legitimacy verifier all
share it.
"""

from __future__ import annotations

from ..ids.sections import VermeIdLayout


def verme_finger_target(layout: VermeIdLayout, node_id: int, k: int) -> int:
    """The id whose Verme owner is node ``node_id``'s finger ``k``."""
    raw = layout.space.wrap(node_id + (1 << k))
    own_section = layout.section_index(node_id)
    raw_section = layout.section_index(raw)
    if raw_section == own_section:
        # Within the node's own island: successors there are legal.
        return raw
    if raw_section == (own_section + 1) % layout.num_sections:
        # The subsequent section is of the opposite type already.
        return raw
    if layout.type_of(raw) == layout.type_of(node_id):
        # Would land among nodes of our own type: displace one section.
        return layout.advance_sections(raw, 1)
    return raw


def is_verme_finger_target(layout: VermeIdLayout, node_id: int, key: int) -> bool:
    """Is ``key`` a legitimate finger target for ``node_id``?

    Used by the responsible node to verify finger-maintenance lookups
    (§4.5: "the node must verify if it is ... a correct finger of the id
    in the certificate").
    """
    # verme_finger_target(id, k) is id + 2**k, possibly displaced by one
    # section length: only those two distances can name a k.
    wrap = layout.space.wrap
    distance = wrap(key - node_id)
    for d in (distance, wrap(distance - layout.section_length)):
        if d and not d & (d - 1):
            if verme_finger_target(layout, node_id, d.bit_length() - 1) == key:
                return True
    return False
