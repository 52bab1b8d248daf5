"""Impersonation-attack harvesters (paper §5.3, driven in §7.3).

An impersonating node joins the overlay with an identity of the type
opposite to the one it attacks.  What it can then harvest depends on
the VerDi variant:

* **Secure-VerDi** — nothing beyond its own routing state: its finger
  entries point at O(log N) victim-type nodes, and that is the whole
  reachable surface (no harvester object needed; see
  :class:`ImpersonatorKnowledge`).
* **Fast-VerDi** — every get/put lookup it issues returns the
  victim-type replica group of a chosen key; the paper drives this at
  10 lookups/s (:class:`FastVerDiHarvester`).
* **Compromise-VerDi** — it cannot gain by issuing operations, but
  whenever an honest victim-type node relays an operation through it
  (every node issues 1 lookup/s), it sees the initiator's address and,
  while executing the relayed Fast-style get, the victim-type replica
  group of the requested key (:class:`CompromiseVerDiHarvester`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from ..ids.assignment import NodeType
from ..obs import OBS
from ..overlay.snapshot import VermeStaticOverlay
from ..sim import Simulator
from .knowledge import RoutingKnowledge, id_types, keep_types

if False:  # typing only; both worm engines satisfy the interface used here
    from .simulation import WormSimulation


class ImpersonatorKnowledge:
    """Wraps a knowledge model so the impersonator targets the victim
    type (its fingers) instead of its own claimed type."""

    #: Both branches below return routing state, which is unique and
    #: self-free by construction.
    targets_unique = True

    def __init__(
        self,
        base: RoutingKnowledge,
        overlay: VermeStaticOverlay,
        impersonator_index: int,
        victim_type: NodeType,
    ) -> None:
        self.base = base
        self.overlay = overlay
        self.impersonator_index = impersonator_index
        self.victim_type = victim_type

    def targets_of(self, index: int) -> List[int]:
        """The impersonator's routing entries of the victim type; every
        other node keeps the base model's targets."""
        if index != self.impersonator_index:
            return self.base.targets_of(index)
        layout = self.overlay.layout
        ids = self.overlay.ids
        indices = self.overlay.routing_target_indices(
            index, self.base.num_successors, self.base.num_predecessors
        )
        return [
            i
            for i in indices
            if NodeType(layout.type_of(ids[i])) is self.victim_type
        ]

    def targets_of_many(self, indices):
        """Batched :meth:`targets_of`: one type mask over the overlay's
        batch, with the victim type on the impersonator's row."""
        base = self.base
        overlay = self.overlay
        layout = overlay.layout
        flat, counts = overlay.routing_target_indices_many(
            indices, base.num_successors, base.num_predecessors
        )
        is_imp = np.asarray(indices, dtype=np.int64) == self.impersonator_index
        row_types = id_types(overlay, layout, indices)
        row_types[is_imp] = int(self.victim_type)
        return keep_types(
            overlay,
            layout,
            flat,
            counts,
            row_types,
            None if base.same_type_only else ~is_imp,
        )


class _SectionHarvester:
    """Shared engine: periodically harvest the victim-type replica group
    of a random key and feed it to the impersonator's worm instance."""

    def __init__(
        self,
        sim: Simulator,
        worm: "WormSimulation",
        overlay: VermeStaticOverlay,
        impersonator_index: int,
        victim_type: NodeType,
        rng: random.Random,
        rate_per_s: float,
        replicas_per_lookup: int,
        vulnerable_total: int,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError("harvest rate must be positive")
        self.sim = sim
        self.worm = worm
        self.overlay = overlay
        self.impersonator_index = impersonator_index
        self.victim_type = victim_type
        self.rng = rng
        self.rate_per_s = rate_per_s
        self.replicas_per_lookup = replicas_per_lookup
        self.vulnerable_total = vulnerable_total
        self.harvest_events = 0
        self.addresses_harvested = 0
        self._stopped = False

    def start(self) -> None:
        self._stopped = False
        self.sim.call_after(self.rng.expovariate(self.rate_per_s), self._fire)

    def stop(self) -> None:
        self._stopped = True

    def _victim_position(self) -> int:
        """A replica position guaranteed to lie in a victim-type section."""
        layout = self.overlay.layout
        key = layout.random_key(self.rng)
        if NodeType(layout.type_of(key)) is not self.victim_type:
            key = layout.opposite_type_position(key)
        return key

    def _harvest_once(self) -> List[int]:
        position = self._victim_position()
        group = self.overlay.replica_group_indices(
            position, self.replicas_per_lookup
        )
        layout = self.overlay.layout
        ids = self.overlay.ids
        return [
            i
            for i in group
            if NodeType(layout.type_of(ids[i])) is self.victim_type
        ]

    def _extra_targets(self) -> List[int]:
        return []

    def _fire(self) -> None:
        if self._stopped:
            return
        # infected_count includes the (non-vulnerable) impersonator, so
        # only stop once it strictly exceeds the vulnerable population.
        if self.worm.infected_count > self.vulnerable_total:
            return  # everything vulnerable is infected; nothing to gain
        targets = self._harvest_once() + self._extra_targets()
        self.harvest_events += 1
        self.addresses_harvested += len(targets)
        # Harvest injections are traced here (engine-independent) rather
        # than in the engines' ``add_targets``, which the legacy engine
        # also calls internally on activation.
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "worm.harvest",
                self.sim.now,
                lane="worm",
                args={
                    "node": self.impersonator_index,
                    "count": len(targets),
                },
            )
        self.worm.add_targets(self.impersonator_index, targets)
        self.sim.call_after(self.rng.expovariate(self.rate_per_s), self._fire)


class FastVerDiHarvester(_SectionHarvester):
    """The impersonator issues its own lookups (10/s in the paper)."""


class CompromiseVerDiHarvester(_SectionHarvester):
    """Harvest is driven by *relayed* operations from honest nodes.

    The expected relay rate at one node is ``lookup_rate x
    (victim population / claimed-type population)`` — each honest node
    issues ``lookup_rate`` operations/s and spreads them over its
    fingers; summed over all victim-type nodes the impersonator serves,
    the mean is one relayed operation per second with the paper's
    parameters (see DESIGN.md §6).  Each relayed get also exposes the
    initiator's address.
    """

    def __init__(
        self,
        sim: Simulator,
        worm: "WormSimulation",
        overlay: VermeStaticOverlay,
        impersonator_index: int,
        victim_type: NodeType,
        rng: random.Random,
        rate_per_s: float,
        replicas_per_lookup: int,
        vulnerable_total: int,
        initiator_pool: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(
            sim,
            worm,
            overlay,
            impersonator_index,
            victim_type,
            rng,
            rate_per_s,
            replicas_per_lookup,
            vulnerable_total,
        )
        self.initiator_pool = list(initiator_pool) if initiator_pool else None

    @staticmethod
    def expected_rate(
        node_lookup_rate_per_s: float, victim_count: int, claimed_type_count: int
    ) -> float:
        """Mean relayed-operation rate at one claimed-type node."""
        if claimed_type_count <= 0:
            raise ValueError("claimed-type population must be positive")
        return node_lookup_rate_per_s * victim_count / claimed_type_count

    def _extra_targets(self) -> List[int]:
        if self.initiator_pool:
            return [self.rng.choice(self.initiator_pool)]
        # Approximation: the initiator is a random victim-type node
        # (the true pool is the ~log N victim nodes holding this relay
        # in their finger tables; one extra address per event is noise
        # next to the replica-group harvest either way).
        layout = self.overlay.layout
        for _ in range(16):
            idx = self.rng.randrange(len(self.overlay.ids))
            if NodeType(layout.type_of(self.overlay.ids[idx])) is self.victim_type:
                return [idx]
        return []
