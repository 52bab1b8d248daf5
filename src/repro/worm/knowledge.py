"""What a topological worm knows: routing-state knowledge extraction.

A worm on an infected node harvests the overlay routing state —
successor list, predecessor list, finger table — to choose its next
targets (paper §3: "use the routing state maintained by the application
to choose the next target to infect").

Target filtering: Verme ids *encode* the platform type in their middle
bits, so a worm on a Verme overlay skips opposite-type entries for free
(they cannot be vulnerable to it).  Chord ids carry no type
information, so a Chord worm must spend scan slots probing targets that
turn out to be invulnerable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

import numpy as np

from ..ids.sections import VermeIdLayout
from ..overlay.snapshot import StaticOverlay, VermeStaticOverlay


class KnowledgeModel(Protocol):
    """Maps a node index to the indices its worm instance can target.

    Implementations may additionally declare ``targets_unique = True``
    (a class or instance attribute) to promise that every list returned
    by ``targets_of`` is duplicate-free and never contains ``index``
    itself; the columnar engine then skips per-target dedup on first
    knowledge injection.  They may also provide
    ``targets_of_many(indices) -> (flat, counts)`` — the concatenated
    target lists plus per-row lengths — which batch engines prefer.
    """

    def targets_of(self, index: int) -> List[int]:
        """The overlay indices the worm on ``index`` can target, in the
        order it scans them."""
        ...


class GraphKnowledge:
    """Knowledge = a given adjacency: ``graph[index]`` is the target list
    (absent nodes know nothing).  Lists are returned as given, so they
    may repeat targets or name the node itself."""

    def __init__(self, graph: Dict[int, List[int]]) -> None:
        self.graph = graph

    def targets_of(self, index: int) -> List[int]:
        """A copy of ``index``'s adjacency list (empty when absent)."""
        return list(self.graph.get(index, []))


class RoutingKnowledge:
    """Knowledge = the node's full routing state on a static overlay."""

    #: Routing state never references the node itself and is
    #: deduplicated by construction (see ``routing_target_indices``).
    targets_unique = True

    def __init__(
        self,
        overlay: StaticOverlay,
        num_successors: int = 10,
        num_predecessors: int = 0,
        same_type_only: bool = False,
        layout: Optional[VermeIdLayout] = None,
    ) -> None:
        """``same_type_only`` models the worm reading types from ids
        (requires ``layout``)."""
        if same_type_only and layout is None:
            raise ValueError("same_type_only filtering needs a VermeIdLayout")
        self.overlay = overlay
        self.num_successors = num_successors
        self.num_predecessors = num_predecessors
        self.same_type_only = same_type_only
        self.layout = layout

    def targets_of(self, index: int) -> List[int]:
        """The node's routing entries (successors, predecessors, then
        fingers), restricted to its own type when ``same_type_only``."""
        indices = self.overlay.routing_target_indices(
            index, self.num_successors, self.num_predecessors
        )
        if not self.same_type_only:
            return indices
        # Filtering needs the layout, so types are read from the ids.
        ids = self.overlay.ids
        sb = self.layout.section_bits
        tmask = self.layout.num_types - 1
        own_type = (ids[index] >> sb) & tmask
        return [i for i in indices if (ids[i] >> sb) & tmask == own_type]

    def targets_of_many(self, indices):
        """Batched :meth:`targets_of`: ``(flat, counts)`` with the
        concatenated per-node target lists and each row's length.
        Extraction is the overlay's vectorised batch; type filtering is
        one mask over ``flat``."""
        flat, counts = self.overlay.routing_target_indices_many(
            indices, self.num_successors, self.num_predecessors
        )
        if not self.same_type_only:
            return flat, counts
        row_types = id_types(self.overlay, self.layout, indices)
        return keep_types(self.overlay, self.layout, flat, counts, row_types)


def id_types(overlay: StaticOverlay, layout: VermeIdLayout, indices):
    """The id-encoded type of every overlay index in ``indices``, as a
    ``uint64`` array (array form of ``layout.type_of``)."""
    if overlay.space.bits > 64:
        ids = overlay.ids
        return np.array([layout.type_of(ids[i]) for i in indices], dtype=np.uint64)
    ids_np = overlay._ids_numpy()
    return (
        ids_np[np.asarray(indices, dtype=np.int64)] >> np.uint64(layout.section_bits)
    ) & np.uint64(layout.num_types - 1)


def keep_types(
    overlay: StaticOverlay,
    layout: VermeIdLayout,
    flat,
    counts,
    row_types,
    unfiltered_rows=None,
):
    """Filter a ``(flat, counts)`` batch to the targets whose type is
    their row's entry in ``row_types``; rows flagged in the optional
    boolean ``unfiltered_rows`` keep every target."""
    flat = np.asarray(flat, dtype=np.int64)
    rows = np.repeat(np.arange(len(counts)), counts)
    keep = id_types(overlay, layout, flat) == row_types[rows]
    if unfiltered_rows is not None:
        keep |= unfiltered_rows[rows]
    return flat[keep], np.bincount(rows[keep], minlength=len(counts))


def verme_knowledge(
    overlay: VermeStaticOverlay,
    num_successors: int = 10,
    num_predecessors: int = 10,
) -> RoutingKnowledge:
    """Standard knowledge model for a worm on Verme: routing state with
    type-filtering (the worm reads types straight from the ids)."""
    return RoutingKnowledge(
        overlay,
        num_successors=num_successors,
        num_predecessors=num_predecessors,
        same_type_only=True,
        layout=overlay.layout,
    )


def chord_knowledge(
    overlay: StaticOverlay,
    num_successors: int = 10,
) -> RoutingKnowledge:
    """Standard knowledge model for a worm on Chord: routing state,
    unfiltered (Chord ids reveal nothing about platform types)."""
    return RoutingKnowledge(overlay, num_successors=num_successors)
