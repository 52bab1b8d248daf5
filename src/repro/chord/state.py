"""Per-node routing state: successor/predecessor lists and fingers.

The containment argument of the paper is entirely about *what these
tables are allowed to contain*, so the state is kept in one auditable
place with explicit invariant helpers (used by tests and by the worm
model's knowledge extraction).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from ..ids.idspace import IdSpace
from ..net.addressing import NodeAddress
from .rules import merge_neighbors, remove_finger_ref, remove_ref


class NodeInfo(NamedTuple):
    """A routing-table entry: an id and how to reach it.

    In Verme the node's type is *derivable from the id* (the middle
    bits), so entries never need to carry a separate type field.
    A tuple, so an entry has the same shape as the columnar engine's
    ``(node_id, row)`` pairs: ``e[0]`` is the id and ``e[1]`` the
    reference, and the rules of :mod:`repro.chord.rules` index both
    engines' entries alike.
    """

    node_id: int
    address: NodeAddress

    def __str__(self) -> str:
        return f"{self.node_id:#x}@{self.address}"


class NeighborList:
    """An ordered list of ring neighbours (successors or predecessors).

    Entries are kept sorted by ring distance from the owner, deduplicated
    by id, truncated to ``limit``, and never include the owner itself.
    ``clockwise=True`` sorts by clockwise distance (successor list);
    ``False`` by counter-clockwise distance (predecessor list).
    """

    def __init__(
        self, space: IdSpace, owner_id: int, limit: int, clockwise: bool = True
    ) -> None:
        self._space = space
        self._owner_id = owner_id
        self._limit = limit
        self._clockwise = clockwise
        self._entries: List[NodeInfo] = []
        #: Bumped whenever the entry list actually changes content; the
        #: routing fast path uses it to cache a derived candidate list.
        self.version = 0

    @property
    def entries(self) -> List[NodeInfo]:
        """A copy of the entries, nearest first."""
        return list(self._entries)

    @property
    def entries_view(self) -> List[NodeInfo]:
        """The internal entry list *without* the defensive copy.

        Mutating operations rebind ``_entries`` rather than mutate it,
        so a view taken here stays stable for the duration of a routing
        scan; callers must treat it as read-only.  This is the
        allocation-free path the per-hop routing loops use.
        """
        return self._entries

    @property
    def first(self) -> Optional[NodeInfo]:
        """The nearest entry, or None when the list is empty."""
        return self._entries[0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __contains__(self, info: NodeInfo) -> bool:
        return info in self._entries

    def merge(self, candidates: Iterable[NodeInfo]) -> None:
        """Fold ``candidates`` into the list, keeping the closest ``limit``
        (:func:`~repro.chord.rules.merge_neighbors`)."""
        new_entries = merge_neighbors(
            self._entries, candidates, self._owner_id, self._space.mask,
            self._limit, self._clockwise,
        )
        # A no-op merge keeps ``version`` stable so derived caches survive.
        if new_entries is not None:
            self._entries = new_entries
            self.version += 1

    def replace(self, entries: Iterable[NodeInfo]) -> None:
        """Drop every entry, then merge ``entries`` (join / bootstrap)."""
        had_entries = bool(self._entries)
        self._entries = []
        self.merge(entries)
        if had_entries and not self._entries:
            # merge() compared against the fresh empty list and saw no
            # change; the replacement itself still emptied the list.
            self.version += 1

    def remove_address(self, address: NodeAddress) -> None:
        """Drop every entry reached at ``address`` (failure detector)."""
        kept = remove_ref(self._entries, address)
        if kept is not None:
            self._entries = kept
            self.version += 1

    def remove_id(self, node_id: int) -> None:
        """Drop the entry with id ``node_id``, if any."""
        kept = [e for e in self._entries if e.node_id != node_id]
        if len(kept) != len(self._entries):
            self._entries = kept
            self.version += 1


class FingerTable:
    """Sparse finger table indexed by finger number ``k``.

    Only fingers whose targets lie beyond the first successor are
    actually maintained (the successor list covers the rest), so the
    table holds ~log2(N) live entries.
    """

    def __init__(self) -> None:
        self._fingers: Dict[int, NodeInfo] = {}
        #: Bumped on content change (see NeighborList.version).
        self.version = 0

    def set(self, k: int, info: Optional[NodeInfo]) -> None:
        """Install ``info`` as finger ``k`` (None clears the slot)."""
        if info is None:
            if self._fingers.pop(k, None) is not None:
                self.version += 1
        elif self._fingers.get(k) != info:
            self._fingers[k] = info
            self.version += 1

    def get(self, k: int) -> Optional[NodeInfo]:
        """Finger ``k``, or None when it is not held."""
        return self._fingers.get(k)

    def entries(self) -> List[NodeInfo]:
        """A copy of the finger entries, in insertion order."""
        return list(self._fingers.values())

    def values(self):
        """Live no-copy view of the finger entries, in finger order of
        insertion (read-only; the routing scan's allocation-free path)."""
        return self._fingers.values()

    def items(self):
        """A copy of the ``(k, entry)`` pairs, in insertion order."""
        return list(self._fingers.items())

    def remove_address(self, address: NodeAddress) -> None:
        """Drop every finger reached at ``address`` (failure detector)."""
        kept = remove_finger_ref(self._fingers, address)
        if kept is not None:
            self._fingers = kept
            self.version += 1

    def __len__(self) -> int:
        return len(self._fingers)
