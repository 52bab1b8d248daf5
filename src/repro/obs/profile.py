"""Lightweight profiling hooks: per-phase wall/CPU time and peak RSS.

This is the third leg of :mod:`repro.obs`.  :func:`peak_rss_kib` is
the one implementation of the process's memory high-water mark; the
perf harness (``benchmarks/perf/perf_common``) and the parallel runner
(``repro.experiments.parallel``) import it from here.  A
:class:`PhaseProfiler` brackets named phases of a run
(``with profiler.phase("build"): ...``) and records wall seconds, CPU
seconds, and — when a phase is given a :class:`~repro.sim.engine
.Simulator` — the kernel event delta, from which it derives the phase's
event rate.

Profiling numbers are **wall-clock facts, not simulation facts**: they
differ run to run, so they are never part of a metrics snapshot (whose
bytes must be deterministic).  The runner prints them in the run report
instead, and benchmark records keep them in their own timing fields.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional


def peak_rss_kib() -> int:
    """High-water resident set size of this process (KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        rss //= 1024
    return int(rss)


class PhaseProfiler:
    """Accumulates per-phase wall/CPU time and event counts.

    Re-entering a phase name accumulates into the same record, so a
    loop of cells can be profiled under one phase.  Phases preserve
    first-entry order in :meth:`summary`.
    """

    __slots__ = ("_phases", "_order")

    def __init__(self) -> None:
        self._phases: Dict[str, Dict[str, float]] = {}
        self._order: List[str] = []

    @contextmanager
    def phase(self, name: str, sim: Optional[Any] = None):
        """Bracket one phase; ``sim`` adds kernel-event accounting."""
        record = self._phases.get(name)
        if record is None:
            record = self._phases[name] = {
                "wall_s": 0.0, "cpu_s": 0.0, "events": 0, "entries": 0,
            }
            self._order.append(name)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        events0 = sim.events_processed if sim is not None else 0
        try:
            yield record
        finally:
            record["wall_s"] += time.perf_counter() - wall0
            record["cpu_s"] += time.process_time() - cpu0
            if sim is not None:
                record["events"] += sim.events_processed - events0
            record["entries"] += 1

    def summary(self) -> Dict[str, Any]:
        """Phases in first-entry order plus the process's peak RSS."""
        phases = {}
        for name in self._order:
            record = dict(self._phases[name])
            wall = record["wall_s"]
            if record["events"] and wall > 0:
                record["events_per_s"] = record["events"] / wall
            phases[name] = record
        return {"phases": phases, "peak_rss_kib": peak_rss_kib()}

    def format_report(self) -> str:
        """Human-readable multi-line phase report for run summaries."""
        summary = self.summary()
        lines = []
        for name, record in summary["phases"].items():
            line = (f"  {name:<24} wall {record['wall_s']:8.2f}s"
                    f"  cpu {record['cpu_s']:8.2f}s")
            if "events_per_s" in record:
                line += (f"  {int(record['events']):,} events"
                         f" ({record['events_per_s']:,.0f}/s)")
            lines.append(line)
        lines.append(f"  peak RSS {summary['peak_rss_kib']:,} KiB")
        return "\n".join(lines)
