"""Static overlay snapshots.

Computes, from a sorted id population alone, the exact routing state a
converged overlay would hold: successor/predecessor lists, finger
tables, and key ownership.  Three consumers:

* **instant bootstrap** — the experiment rings are initialised with
  converged state instead of paying O(N) protocol joins (p2psim does
  the same);
* **the worm simulations** — the paper's Fig. 8 runs on a 100,000-node
  *static* overlay, far past what a live protocol simulation in Python
  should be asked to maintain;
* **tests** — protocol-built state is checked against this ground truth.

Everything here is O(log N) per query via bisect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..chord.state import NodeInfo
from ..ids.idspace import IdSpace
from ..ids.sections import VermeIdLayout
from ..net.addressing import NodeAddress
from ..verme.fingers import verme_finger_target

#: Row batches above this are processed in chunks by the vectorised
#: knowledge path so its (rows x candidates) matrices stay small.
_BATCH_CHUNK = 16384


@dataclass(frozen=True)
class OwnerDecision:
    """Who owns a key, and whether the predecessor corner rule fired."""

    index: int
    via_predecessor_rule: bool


class StaticOverlay:
    """Chord ownership and routing state over a fixed population."""

    def __init__(self, space: IdSpace, infos: Sequence[NodeInfo]) -> None:
        if not infos:
            raise ValueError("an overlay needs at least one node")
        self.space = space
        self._infos: Optional[List[NodeInfo]] = sorted(
            infos, key=lambda i: i.node_id
        )
        self.ids: List[int] = [i.node_id for i in self._infos]
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate node ids in overlay population")
        self._ids_np = None

    @classmethod
    def from_ids(cls, space: IdSpace, ids: Sequence[int]) -> "StaticOverlay":
        """Build an overlay from bare ids without materialising
        :class:`NodeInfo` objects.

        At million-node scale the per-node ``NodeInfo``/``NodeAddress``
        dataclasses dominate construction cost and RSS; the worm
        simulations only ever consult ``ids`` and index arithmetic, so
        :attr:`infos` stays lazy (materialised on first access, with
        addresses equal to the sorted position).  ``ids`` is any
        sequence of ints; a ``uint64`` array (a batch of
        :func:`~repro.ids.draws.unique_ids`) sorts in numpy and stays as
        the cache of :meth:`_ids_numpy`.
        """
        if len(ids) == 0:
            raise ValueError("an overlay needs at least one node")
        self = object.__new__(cls)
        self.space = space
        self._infos = None
        self._ids_np = None
        if getattr(ids, "dtype", None) == np.uint64:
            ordered = np.sort(ids)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("duplicate node ids in overlay population")
            self.ids = ordered.tolist()
            self._ids_np = ordered
        else:
            self.ids = sorted(ids)
            if any(a == b for a, b in zip(self.ids, self.ids[1:])):
                raise ValueError("duplicate node ids in overlay population")
        return self

    @property
    def infos(self) -> List[NodeInfo]:
        if self._infos is None:
            self._infos = [
                NodeInfo(nid, NodeAddress(i)) for i, nid in enumerate(self.ids)
            ]
        return self._infos

    def __len__(self) -> int:
        return len(self.ids)

    # -- basic geometry --------------------------------------------------------

    def index_of(self, node_id: int) -> int:
        i = bisect_left(self.ids, node_id)
        if i == len(self.ids) or self.ids[i] != node_id:
            raise KeyError(f"node id {node_id:#x} not in overlay")
        return i

    def successor_index(self, key: int) -> int:
        """Index of the first node clockwise from ``key`` (inclusive)."""
        i = bisect_left(self.ids, key)
        return i % len(self.ids)

    def predecessor_index(self, key: int) -> int:
        """Index of the last node strictly before ``key`` (clockwise)."""
        i = bisect_left(self.ids, key)
        return (i - 1) % len(self.ids)

    def at(self, index: int) -> NodeInfo:
        return self.infos[index % len(self.infos)]

    # -- routing state ----------------------------------------------------------

    def successor_list(self, index: int, count: int) -> List[NodeInfo]:
        n = len(self.infos)
        count = min(count, n - 1)
        return [self.infos[(index + 1 + j) % n] for j in range(count)]

    def predecessor_list(self, index: int, count: int) -> List[NodeInfo]:
        n = len(self.infos)
        count = min(count, n - 1)
        return [self.infos[(index - 1 - j) % n] for j in range(count)]

    # Each routing rule is stated twice, side by side: a scalar form
    # over plain ints (the NodeInfo / reference path) and an array form
    # over ``uint64`` ids (the batched knowledge path).  Array forms take
    # ``x`` as the (m,) node ids and return (m, k) matrices.

    def owner(self, key: int) -> OwnerDecision:
        """Chord: a key is owned by its successor, unconditionally."""
        return OwnerDecision(self.successor_index(key), False)

    def _owners_np(self, targets):
        """Array :meth:`owner`: the successor index of every target."""
        return self._ids_numpy().searchsorted(targets) % len(self.ids)

    def finger_target(self, node_id: int, k: int) -> int:
        return self.space.power_of_two_target(node_id, k)

    def _finger_targets_np(self, x, steps):
        """Array :meth:`finger_target`: ``x + 2**k`` for every ``2**k``
        in ``steps``, wrapped onto the ring."""
        return self._wrap_np(x[:, None] + steps[None, :])

    def _wrap_np(self, values):
        """``uint64`` arithmetic wraps at 2**64; narrower rings mask."""
        if self.space.bits < 64:
            values &= np.uint64(self.space.mask)
        return values

    def maintained_finger_indices(self, index: int) -> List[int]:
        """Finger numbers not covered by the node's first successor."""
        node_id = self.ids[index]
        succ_id = self.ids[(index + 1) % len(self.ids)]
        span = self.space.distance(node_id, succ_id)
        if span == 0:  # single-node overlay
            return []
        # 2**k > span  <=>  k >= span.bit_length(), so skip the dead ks.
        return list(range(span.bit_length(), self.space.bits))

    def finger_table(self, index: int) -> dict[int, NodeInfo]:
        """Converged finger table of the node at ``index``."""
        node_id = self.ids[index]
        fingers: dict[int, NodeInfo] = {}
        for k in self.maintained_finger_indices(index):
            target = self.finger_target(node_id, k)
            owner = self.infos[self.owner(target).index]
            if owner.node_id != node_id and self._finger_entry_allowed(
                node_id, owner.node_id
            ):
                fingers[k] = owner
        return fingers

    def _finger_entry_allowed(self, node_id: int, owner_id: int) -> bool:
        """May ``owner_id`` be stored as a finger of ``node_id``?
        (Verme refuses containment-violating entries.)"""
        return True

    def _finger_allowed_np(self, x, owner_ids):
        """Array :meth:`_finger_entry_allowed` (broadcastable mask)."""
        return True

    def replica_group(self, key: int, count: int) -> List[NodeInfo]:
        """The nodes a DHT should place ``count`` replicas of ``key`` on."""
        infos = self.infos
        return [infos[i] for i in self.replica_group_indices(key, count)]

    def replica_group_indices(self, key: int, count: int) -> List[int]:
        """Index form of :meth:`replica_group` (same nodes, same order)
        that never materialises ``NodeInfo`` objects."""
        start = self.owner(key).index
        n = len(self.ids)
        count = min(count, n)
        return [(start + j) % n for j in range(count)]

    def routing_entries(
        self, index: int, num_successors: int, num_predecessors: int
    ) -> List[NodeInfo]:
        """Everything in this node's routing state (for worm knowledge)."""
        seen: dict[int, NodeInfo] = {}
        for info in self.successor_list(index, num_successors):
            seen[info.node_id] = info
        for info in self.predecessor_list(index, num_predecessors):
            seen[info.node_id] = info
        for info in self.finger_table(index).values():
            seen[info.node_id] = info
        return list(seen.values())

    def routing_target_indices(
        self, index: int, num_successors: int, num_predecessors: int
    ) -> List[int]:
        """Index-form :meth:`routing_entries`: the same entries in the
        same first-occurrence order (successors, then predecessors, then
        fingers by ascending ``k``), but as overlay indices with no
        ``NodeInfo`` materialisation or ``index_of`` lookups.  This is
        the worm-knowledge hot path.
        """
        out, seen = self._neighbour_indices(index, num_successors, num_predecessors)
        ids = self.ids
        node_id = ids[index]
        finger_target = self.finger_target
        owner = self.owner
        allowed = self._finger_entry_allowed
        for k in self.maintained_finger_indices(index):
            oi = owner(finger_target(node_id, k)).index
            owner_id = ids[oi]
            if owner_id != node_id and oi not in seen and allowed(node_id, owner_id):
                seen.add(oi)
                out.append(oi)
        return out

    def _neighbour_indices(
        self, index: int, num_successors: int, num_predecessors: int
    ) -> tuple[List[int], set]:
        """Successor then predecessor indices, first occurrence only,
        plus the set of indices already listed."""
        n = len(self.ids)
        out = [(index + j) % n for j in range(1, min(num_successors, n - 1) + 1)]
        seen = set(out)
        for j in range(1, min(num_predecessors, n - 1) + 1):
            i = (index - j) % n
            if i not in seen:
                seen.add(i)
                out.append(i)
        return out, seen

    def _ids_numpy(self):
        """The sorted id list as a cached ``uint64`` array (ids fit by
        the ``bits <= 64`` guard of the callers)."""
        arr = self._ids_np
        if arr is None:
            arr = np.array(self.ids, dtype=np.uint64)
            self._ids_np = arr
        return arr

    def finger_owners_np(self, idx):
        """Array :meth:`finger_table` for the nodes at sorted indices
        ``idx`` (an int64 array), as owner indices: ``(kmin, oi, ok)`` where
        column ``j`` is finger ``kmin + j``, ``oi`` the (m, k) owner
        indices and ``ok`` the mask of fingers a node holds.  ``kmin``
        is the lowest finger any node of the batch maintains (``oi``
        and ``ok`` are ``None`` when none does)."""
        ids_np = self._ids_numpy()
        n = len(ids_np)
        bits = self.space.bits
        node_ids = ids_np[idx]
        # Successor span decides which fingers each node maintains;
        # uint64 wraparound then masking gives distance mod 2**bits.
        spans = self._wrap_np(ids_np[(idx + 1) % n] - node_ids)
        kmin = int(spans.min()).bit_length() if len(idx) else bits
        if kmin >= bits:
            return kmin, None, None
        # All finger owners in one searchsorted over the (m, k) target
        # matrix.
        steps = np.uint64(1) << np.arange(kmin, bits, dtype=np.uint64)
        oi = self._owners_np(self._finger_targets_np(node_ids, steps))
        owner_ids = ids_np[oi]
        ok = spans[:, None] < steps[None, :]  # 2**k > span
        ok &= owner_ids != node_ids[:, None]
        ok &= self._finger_allowed_np(node_ids, owner_ids)
        return kmin, oi, ok

    def routing_target_indices_many(
        self, indices: Sequence[int], num_successors: int, num_predecessors: int
    ):
        """Batched :meth:`routing_target_indices` over many nodes.

        Returns ``(flat, counts)`` where ``flat`` is the concatenation
        of each node's target list (row-major, exact per-node order
        preserved) and ``counts[r]`` is the length of row ``r``.  The
        batch is vectorised with numpy through the class's array rules
        (``_finger_targets_np``, ``_owners_np``, ``_finger_allowed_np``),
        so one kernel serves every overlay class.  Rings wider than 64
        bits take the scalar path.
        """
        if self.space.bits > 64:
            flat: List[int] = []
            counts: List[int] = []
            for index in indices:
                row = self.routing_target_indices(
                    index, num_successors, num_predecessors
                )
                flat.extend(row)
                counts.append(len(row))
            return flat, counts

        ids_np = self._ids_numpy()
        n = len(ids_np)
        bits = self.space.bits
        idx_all = np.asarray(indices, dtype=np.int64)
        cs = min(num_successors, n - 1)
        cp = min(num_predecessors, n - 1)
        succ_offsets = np.arange(1, cs + 1, dtype=np.int64)
        if cp:
            pred_offsets = np.arange(1, cp + 1, dtype=np.int64)
            # Predecessor j sits at ring offset n - j; it repeats a
            # successor iff that offset is within the successor list.
            pred_keep = n - pred_offsets > cs
        flat_parts = []
        count_parts = []
        for lo in range(0, idx_all.shape[0], _BATCH_CHUNK):
            idx = idx_all[lo : lo + _BATCH_CHUNK]
            m = idx.shape[0]
            kmin, oi, ok = self.finger_owners_np(idx)
            nk = max(0, bits - kmin)
            cols = cs + cp + nk
            cand = np.empty((m, cols), dtype=np.int64)
            keep = np.ones((m, cols), dtype=bool)
            cand[:, :cs] = (idx[:, None] + succ_offsets) % n
            if cp:
                cand[:, cs : cs + cp] = (idx[:, None] - pred_offsets) % n
                keep[:, cs : cs + cp] = pred_keep
            if nk:
                # Dedup in O(m*cols).  A finger repeats a list entry iff
                # its ring offset lies outside (cs, n - cp), i.e. within
                # the successor or predecessor list; shifting offsets by
                # cs + 1 makes that one comparison.  Finger distances
                # grow strictly with k (a displaced 2**k + section_length
                # stays below 2**(k+1)), and both ownership rules map a
                # farther target to an owner no nearer along
                # [x, x + ring), so equal owners occupy adjacent columns;
                # refusals and self-exclusion depend on the owner alone,
                # so comparing each masked column with its left
                # neighbour suffices.
                ok &= (oi - (idx[:, None] + (cs + 1))) % n < n - cs - cp - 1
                f = np.where(ok, oi, -1)
                ok[:, 1:] &= f[:, 1:] != f[:, :-1]
                cand[:, cs + cp :] = oi
                keep[:, cs + cp :] = ok
            flat_parts.append(cand[keep])
            count_parts.append(keep.sum(axis=1))
        if not flat_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(flat_parts), np.concatenate(count_parts)


class VermeStaticOverlay(StaticOverlay):
    """Verme's ownership (section-bounded with the predecessor corner
    rule, §4.4/§5.2) and opposite-type finger placement."""

    def __init__(
        self, layout: VermeIdLayout, infos: Sequence[NodeInfo]
    ) -> None:
        super().__init__(layout.space, infos)
        self.layout = layout

    @classmethod
    def from_ids(
        cls, layout: VermeIdLayout, ids: Sequence[int]
    ) -> "VermeStaticOverlay":
        """Lazy-``infos`` constructor (see :meth:`StaticOverlay.from_ids`)."""
        self = StaticOverlay.from_ids.__func__(cls, layout.space, ids)
        self.layout = layout
        return self

    def owner(self, key: int) -> OwnerDecision:
        """The key's successor if it lies in the key's section, else the
        key's predecessor (the corner case of §4.4)."""
        succ_i = self.successor_index(key)
        if self.layout.same_section(self.ids[succ_i], key):
            return OwnerDecision(succ_i, False)
        return OwnerDecision(self.predecessor_index(key), True)

    def _owners_np(self, targets):
        """Array :meth:`owner`: successor if in the target's section,
        else predecessor."""
        ids_np = self._ids_numpy()
        n = len(ids_np)
        sb = np.uint64(self.layout.section_bits)
        si = ids_np.searchsorted(targets)
        succ = si % n
        in_section = (ids_np[succ] >> sb) == (targets >> sb)
        return np.where(in_section, succ, (si - 1) % n)

    def finger_target(self, node_id: int, k: int) -> int:
        return verme_finger_target(self.layout, node_id, k)

    def _finger_targets_np(self, x, steps):
        """Array :meth:`finger_target` (:func:`verme_finger_target`): a
        raw target outside the node's own section that lands in a
        section of the node's type moves one section on.  (The next
        section, which the scalar rule also exempts, always differs in
        its type field, so the type test covers it.)"""
        layout = self.layout
        sb = np.uint64(layout.section_bits)
        tmask = np.uint64(layout.num_types - 1)
        raw = super()._finger_targets_np(x, steps)
        own = (x >> sb)[:, None]
        rs = raw >> sb
        displace = (rs != own) & ((rs & tmask) == (own & tmask))
        return np.where(
            displace, self._wrap_np(raw + np.uint64(layout.section_length)), raw
        )

    def _finger_entry_allowed(self, node_id: int, owner_id: int) -> bool:
        """In degenerate (sparsely populated) rings the owner of a
        displaced target can be a same-type node from a foreign section;
        storing it would break containment, so it is dropped (routing
        falls back to the successor list)."""
        return self.layout.same_section(owner_id, node_id) or not self.layout.same_type(
            owner_id, node_id
        )

    def _finger_allowed_np(self, x, owner_ids):
        """Array :meth:`_finger_entry_allowed`: same section or opposite
        type."""
        sb = np.uint64(self.layout.section_bits)
        tmask = np.uint64(self.layout.num_types - 1)
        own = (x >> sb)[:, None]
        os_ = owner_ids >> sb
        return (os_ == own) | ((os_ & tmask) != (own & tmask))

    def section_members(self, section_index: int) -> List[NodeInfo]:
        """All nodes whose ids fall in the given section."""
        start, end = self.layout.section_bounds(section_index)
        lo = bisect_left(self.ids, start)
        hi = bisect_right(self.ids, end)
        return self.infos[lo:hi]

    def replica_group(self, key: int, count: int) -> List[NodeInfo]:
        """Up to ``count`` nodes of the key's section nearest the key.

        Starts at the owner and extends clockwise while staying in the
        key's section, then counter-clockwise (the paper's "replicate
        toward the predecessors" corner rule); never leaves the section.
        """
        infos = self.infos
        return [infos[i] for i in self.replica_group_indices(key, count)]

    def replica_group_indices(self, key: int, count: int) -> List[int]:
        ids = self.ids
        decision = self.owner(key)
        owner_index = decision.index
        section = self.layout.section_index(key)
        if self.layout.section_index(ids[owner_index]) != section:
            # Degenerate: the key's section is empty; only the ring
            # predecessor can own it.
            return [owner_index]
        n = len(ids)
        group = [owner_index]
        j = owner_index
        while len(group) < count:
            j = (j + 1) % n
            if j == owner_index or self.layout.section_index(ids[j]) != section:
                break
            group.append(j)
        j = owner_index
        while len(group) < count:
            j = (j - 1) % n
            if j in group or self.layout.section_index(ids[j]) != section:
                break
            group.append(j)
        return group

    def cross_type_replica_groups(
        self, key: int, per_group: int
    ) -> tuple[List[NodeInfo], List[NodeInfo]]:
        """VerDi's two replica groups (§5.2): ``per_group`` nodes at the
        key's position and the same position one section later."""
        return (
            self.replica_group(key, per_group),
            self.replica_group(self.layout.opposite_type_position(key), per_group),
        )


class NaiveFingerVermeOverlay(VermeStaticOverlay):
    """Ablation: Verme's sectioned ids and ownership, but *plain Chord*
    finger targets and no containment filtering.

    This isolates the contribution of §4.4's finger displacement: with
    naive fingers a node's table contains same-type nodes from distant
    sections, handing a worm exactly the cross-island links Verme
    exists to remove.  Used by ablation A1.
    """

    finger_target = StaticOverlay.finger_target
    _finger_targets_np = StaticOverlay._finger_targets_np
    _finger_entry_allowed = StaticOverlay._finger_entry_allowed
    _finger_allowed_np = StaticOverlay._finger_allowed_np
