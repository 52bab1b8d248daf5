"""The worm engine's oracle: one kernel event per logical worm event.

Nothing of record runs this engine.  Experiments, the fidelity ledger,
the CLI and the benchmarks all run
:class:`repro.worm.columnar.ColumnarWormSimulation`; this readable
per-event implementation is kept only so that tests can compare the
columnar engine against it, on the scenarios and on any generated
input (``tests/conftest.py``'s ``worm_oracle`` fixture swaps it in).

Runs the four-state model of :mod:`repro.worm.model` as discrete events
over a static overlay population.  Each infected node maintains a queue
of known-but-unscanned targets (deduplicated); harvesters
(:mod:`repro.worm.harvest`) may inject fresh targets at any time, which
wakes idle scanners — this is how the impersonation attacks feed the
worm in the Fast-/Compromise-VerDi scenarios.

The engine deliberately scans each known address at most once per node:
on a static overlay rescanning gains nothing, and this keeps the
100,000-node runs tractable (the event count is bounded by the total
knowledge volume, not by simulated time).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..obs import OBS
from ..sim import Simulator
from .knowledge import KnowledgeModel
from .model import InfectionCurve, WormParams, WormState, validate_population

# Enum attribute lookups are surprisingly costly in the per-scan hot
# loop; bind the states once at module level.
_NOT_INFECTED = WormState.NOT_INFECTED
_SCANNING = WormState.SCANNING
_INFECTING = WormState.INFECTING
_INACTIVE = WormState.INACTIVE


class WormSimulation:
    """One propagation run over a fixed population."""

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        vulnerable: Sequence[bool],
        knowledge: KnowledgeModel,
        params: WormParams = WormParams(),
    ) -> None:
        validate_population(num_nodes, vulnerable)
        self.sim = sim
        self.num_nodes = num_nodes
        self.vulnerable = list(vulnerable)
        self.knowledge = knowledge
        self.params = params
        self.state: List[WormState] = [WormState.NOT_INFECTED] * num_nodes
        self.infected_count = 0
        self.curve = InfectionCurve()
        self._queues: Dict[int, Deque[int]] = {}
        self._known: Dict[int, Set[int]] = {}
        self._idle: Set[int] = set()
        self.scans_performed = 0
        self.infections_completed = 0
        # Hot-loop constants, hoisted out of the per-event path.  Worm
        # events are fire-and-forget, so scheduling goes through the
        # kernel's no-handle fast path.
        self._scan_interval = params.scan_interval_s
        self._infect_time = params.infect_time_s
        self._activation_delay = params.activation_delay_s
        self._call_after = sim.call_after

    # -- seeding and harvest injection ------------------------------------------

    def seed(self, index: int, delay_s: float = 0.0) -> None:
        """Implant the worm on ``index`` at the start of the run."""
        if self.state[index] is not WormState.NOT_INFECTED:
            return
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "worm.seed", self.sim.now, lane="worm", args={"node": index}
            )
        self._mark_infected(index)
        self._call_after(delay_s, self._activate, index)

    def add_targets(self, index: int, targets: Sequence[int]) -> None:
        """Inject harvested addresses into ``index``'s worm instance."""
        if self.state[index] is WormState.NOT_INFECTED:
            return
        queue = self._queues.setdefault(index, deque())
        known = self._known.setdefault(index, set())
        added = False
        for t in targets:
            if t == index or t in known:
                continue
            known.add(t)
            queue.append(t)
            added = True
        if added and index in self._idle:
            self._idle.discard(index)
            self._call_after(self._scan_interval, self._scan, index)

    def is_infected(self, index: int) -> bool:
        return self.state[index] is not WormState.NOT_INFECTED

    def pending_targets(self, index: int) -> int:
        """Known-but-unscanned queue length of one node."""
        queue = self._queues.get(index)
        return len(queue) if queue else 0

    # -- state machine ----------------------------------------------------------

    def _mark_infected(self, index: int) -> None:
        self.state[index] = _INACTIVE
        self.infected_count += 1
        self.curve.record(self.sim.now, self.infected_count)

    def _activate(self, index: int) -> None:
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "worm.activate", self.sim.now, lane="worm", args={"node": index}
            )
        self.state[index] = _SCANNING
        self.add_targets(index, self.knowledge.targets_of(index))
        queue = self._queues.get(index)
        if not queue:
            self._idle.add(index)
            return
        self._idle.discard(index)
        self._call_after(self._scan_interval, self._scan, index)

    def _scan(self, index: int) -> None:
        trace = OBS.trace
        queue = self._queues.get(index)
        if not queue:
            self._idle.add(index)
            if trace is not None:
                trace.instant(
                    "worm.idle", self.sim.now, lane="worm", args={"node": index}
                )
            return
        target = queue.popleft()
        self.scans_performed += 1
        state = self.state
        hit = self.vulnerable[target] and state[target] is _NOT_INFECTED
        if trace is not None:
            trace.instant(
                "worm.scan",
                self.sim.now,
                lane="worm",
                args={"node": index, "target": target, "hit": hit},
            )
        if hit:
            state[index] = _INFECTING
            self._call_after(self._infect_time, self._infection_done, index, target)
            return
        self._call_after(self._scan_interval, self._scan, index)

    def _infection_done(self, attacker: int, target: int) -> None:
        new = self.state[target] is _NOT_INFECTED
        trace = OBS.trace
        if trace is not None:
            trace.instant(
                "worm.infection",
                self.sim.now,
                lane="worm",
                args={"attacker": attacker, "target": target, "new": new},
            )
        if new:
            self._mark_infected(target)
            self.infections_completed += 1
            self._call_after(self._activation_delay, self._activate, target)
        self.state[attacker] = _SCANNING
        self._call_after(self._scan_interval, self._scan, attacker)

    # -- running -------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> InfectionCurve:
        """Drive the simulation and return the infection curve."""
        self.sim.run(until=until)
        return self.curve
