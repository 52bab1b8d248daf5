"""The online invariant checker: sim-clock sampling during live runs.

An :class:`InvariantChecker` is installed at ``OBS.invariants`` (see
:mod:`repro.obs` — the same zero-cost-when-disabled switch the metrics
and trace instruments use; the attribute is ``None`` by default and
every hot-path hook is one attribute load + ``is not None``).  An
experiment driver that supports checking calls :meth:`watch` once per
cell, and the checker then:

* samples the ring every ``interval_s`` of *simulated* time;
* samples just after every partition start and heal of the cell's
  :class:`~repro.faults.FaultPlan`;
* re-samples on churn events (node killed / replacement joined,
  reported by :class:`~repro.chord.ring.ChurnDriver` via
  :meth:`note_membership`), rate-limited to one extra sample per
  interval;
* runs a **final** evaluation at the cell's end time, where the
  transient ring invariants escalate to errors
  (:mod:`repro.invariants.predicates` explains the severity model).

Violations accumulate on the checker as structured
:class:`~repro.invariants.predicates.Violation` records carrying sim
time, node ids, offending entries, the cell label and the seed;
:meth:`report` renders them as a JSON-able document and the runner's
``--invariants strict`` mode turns any ``error`` into a non-zero exit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..obs import OBS
from .predicates import (
    SEVERITY_CONDITIONAL,
    SEVERITY_ERROR,
    SEVERITY_TRANSIENT,
    Violation,
    evaluate,
)
from .snapshot import RingSnapshot

#: Seconds after a fault-window edge before sampling, so in-flight
#: messages settle into the post-edge regime first.
EDGE_SETTLE_S = 1.0

MODES = ("sample", "strict")


class InvariantViolationError(AssertionError):
    """Raised by :meth:`InvariantChecker.raise_if_errors` in strict
    harnesses when hard violations were recorded."""


class _Watch:
    """Per-cell sampling state (one live sim + population)."""

    __slots__ = (
        "sim", "population", "layout", "cell", "until", "interval_s",
        "last_sample_s",
    )

    def __init__(self, sim, population, layout, cell, until, interval_s):
        self.sim = sim
        self.population = population
        self.layout = layout
        self.cell = cell
        self.until = until
        self.interval_s = interval_s
        self.last_sample_s = float("-inf")


class InvariantChecker:
    """Accumulates invariant evaluations across one run's cells."""

    def __init__(
        self,
        mode: str = "sample",
        interval_s: float = 60.0,
        seed: Optional[int] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown invariants mode {mode!r}")
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.mode = mode
        self.interval_s = interval_s
        self.seed = seed
        self.violations: List[Violation] = []
        self.checks = 0
        self.churn_samples = 0
        self._watches: Dict[int, _Watch] = {}

    # -- direct evaluation -------------------------------------------------

    def check_population(
        self,
        nodes: Sequence,
        now: float = 0.0,
        *,
        layout=None,
        final: bool = False,
        cell: str = "",
    ) -> List[Violation]:
        """Snapshot ``nodes`` and run every predicate; record and return
        the violations found."""
        snap = RingSnapshot.capture(nodes, now, layout=layout)
        return self.check_snapshot(snap, final=final, cell=cell)

    def check_snapshot(
        self,
        snap: RingSnapshot,
        *,
        final: bool = False,
        cell: str = "",
    ) -> List[Violation]:
        """Run every predicate over an already-captured snapshot (the
        columnar engine builds its own via ``RingSnapshot.from_arrays``)."""
        found = evaluate(snap, final=final, cell=cell, seed=self.seed)
        self.checks += 1
        self.violations.extend(found)
        metrics = OBS.metrics
        if metrics is not None:
            metrics.counter("invariants.checks").inc()
            if found:
                for violation in found:
                    metrics.counter(
                        f"invariants.{violation.severity}."
                        f"{violation.predicate}"
                    ).inc()
        return found

    # -- scheduled sampling ------------------------------------------------

    def watch(
        self,
        sim,
        population,
        *,
        layout=None,
        fault_plan=None,
        until: Optional[float] = None,
        interval_s: Optional[float] = None,
        cell: str = "",
    ) -> None:
        """Schedule sampling for one experiment cell on its sim clock."""
        interval = interval_s if interval_s is not None else self.interval_s
        watch = _Watch(sim, population, layout, cell, until, interval)
        self._watches[id(sim)] = watch

        def periodic() -> None:
            self._sample(watch)
            if until is None or sim.now + interval <= until:
                sim.schedule(interval, periodic)

        sim.schedule(interval, periodic)
        for edge in self._fault_edges(fault_plan):
            at = edge + EDGE_SETTLE_S
            if 0.0 < at and (until is None or at < until):
                sim.schedule_at(at, self._sample, watch)
        if until is not None:
            sim.schedule_at(until, self._final, watch)

    @staticmethod
    def _fault_edges(fault_plan) -> List[float]:
        if fault_plan is None:
            return []
        edges = {e for p in fault_plan.partitions for e in (p.start_s, p.heal_s)}
        return sorted(e for e in edges if e != float("inf"))

    def note_membership(self, sim) -> None:
        """Churn hook (node crashed or joined): re-sample the watched
        cell, at most once per sampling interval beyond the schedule."""
        watch = self._watches.get(id(sim))
        if watch is None:
            return
        if sim.now - watch.last_sample_s >= watch.interval_s:
            self.churn_samples += 1
            self._sample(watch)

    def _sample(self, watch: _Watch, final: bool = False) -> None:
        watch.last_sample_s = watch.sim.now
        # Populations that can snapshot themselves (the columnar
        # engine's flat state arrays) expose ``ring_snapshot``; object
        # populations are captured node by node.
        snapshot_hook = getattr(watch.population, "ring_snapshot", None)
        if snapshot_hook is not None:
            self.check_snapshot(
                snapshot_hook(watch.sim.now), final=final, cell=watch.cell
            )
        else:
            self.check_population(
                watch.population.nodes,
                watch.sim.now,
                layout=watch.layout,
                final=final,
                cell=watch.cell,
            )

    def _final(self, watch: _Watch) -> None:
        self._sample(watch, final=True)
        self._watches.pop(id(watch.sim), None)

    # -- results -----------------------------------------------------------

    @property
    def errors(self) -> List[Violation]:
        """Hard violations (the ones strict mode fails on)."""
        return [
            v for v in self.violations if v.severity == SEVERITY_ERROR
        ]

    def counts(self) -> Dict[str, int]:
        """Violation counts by severity."""
        out = {
            SEVERITY_ERROR: 0,
            SEVERITY_TRANSIENT: 0,
            SEVERITY_CONDITIONAL: 0,
        }
        for violation in self.violations:
            out[violation.severity] += 1
        return out

    def summary(self) -> str:
        """One status line for run reports."""
        counts = self.counts()
        return (
            f"invariants: {self.checks} checks "
            f"({self.churn_samples} churn-triggered), "
            f"{counts['error']} errors, "
            f"{counts['transient']} transient, "
            f"{counts['conditional']} conditional"
        )

    def report(self) -> Dict[str, Any]:
        """The JSON violation report strict mode writes on failure."""
        return {
            "schema": "repro.invariants/1",
            "mode": self.mode,
            "seed": self.seed,
            "checks": self.checks,
            "churn_samples": self.churn_samples,
            "counts": self.counts(),
            "violations": [v.to_record() for v in self.violations],
        }

    def raise_if_errors(self, context: str = "") -> None:
        """Raise :class:`InvariantViolationError` if hard violations
        were recorded (the stress harness's assertion primitive)."""
        errors = self.errors
        if not errors:
            return
        lines = "\n  ".join(str(v) for v in errors[:20])
        suffix = "" if len(errors) <= 20 else f"\n  ... {len(errors) - 20} more"
        where = f" in {context}" if context else ""
        raise InvariantViolationError(
            f"{len(errors)} invariant violation(s){where}:\n  {lines}{suffix}"
        )
