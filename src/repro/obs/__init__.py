"""Observability: metrics registry, structured tracing, profiling hooks.

``repro.obs`` is the uniform way to see *why* a run behaved the way it
did — lookup hop counts, worm state transitions, drop causes, RPC
timeout storms — without paying for the instrumentation when it is off.

Three instruments, one switch:

* **Metrics** (:mod:`repro.obs.registry`) — named counters, gauges and
  fixed-bucket histograms, snapshot-able to byte-stable JSON or CSV.
  ``runner.py <figure> --metrics out.json`` writes one per run, and
  worker-process snapshots merge deterministically so serial and
  ``--workers N`` runs produce identical bytes.
* **Traces** (:mod:`repro.obs.trace`) — Chrome ``trace_event`` JSON on
  the *simulated* clock, viewable in Perfetto: kernel run spans, RPC
  call/reply/timeout/retransmit, lookup spans, DHT fetch phases, worm
  seed/activate/scan/infection events.  ``runner.py <figure> --trace
  out.trace.json``.
* **Profiling** (:mod:`repro.obs.profile`) — per-phase wall/CPU time,
  kernel event rates and peak RSS, printed in run reports (never in
  metrics snapshots, whose bytes must be deterministic).

**The zero-cost-when-disabled contract.**  All shared state lives in
the single module-level :data:`OBS` holder.  When observability is
disabled (the default) its ``metrics``/``trace``/``profile`` attributes
are all ``None``, and every instrumentation site in the hot paths is
guarded by one attribute load and an ``is not None`` test::

    from ..obs import OBS
    ...
    trace = OBS.trace
    if trace is not None:          # the whole cost when disabled
        trace.instant("rpc.call", sim.now, lane="rpc", ...)

No observability object is ever constructed, and no per-event
allocation happens, on the disabled path —
``tests/test_obs.py::test_disabled_mode_allocates_nothing`` pins that
with a tracemalloc audit, and the benchmark suite
(``benchmarks/suite``) measures with observability off, so
instrumentation creep shows as a run-time regression.

See ``docs/observability.md`` for the user guide and worked examples.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Optional, Tuple

from .profile import PhaseProfiler, peak_rss_kib
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    flatten,
)
from .trace import (
    LANES,
    TraceRecorder,
    validate_trace_file,
    validate_trace_obj,
)

__all__ = [
    "OBS",
    "ObsState",
    "enable",
    "disable",
    "enabled",
    "collecting",
    "cell_scope",
    "maybe_phase",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceRecorder",
    "PhaseProfiler",
    "flatten",
    "peak_rss_kib",
    "validate_trace_file",
    "validate_trace_obj",
    "DEFAULT_BUCKETS",
    "LANES",
]


class ObsState:
    """The module-level observability switch (see the module docstring).

    Exactly one instance exists (:data:`OBS`).  Each attribute is either
    ``None`` (that instrument is off) or the live instrument object.
    """

    __slots__ = ("metrics", "trace", "profile", "invariants")

    def __init__(self) -> None:
        self.metrics: Optional[MetricsRegistry] = None
        self.trace: Optional[TraceRecorder] = None
        self.profile: Optional[PhaseProfiler] = None
        #: The online invariant checker
        #: (:class:`repro.invariants.InvariantChecker`), installed
        #: explicitly by callers — e.g. ``runner.py --invariants`` —
        #: rather than by :func:`enable`, which manages only the three
        #: observability instruments.  Same contract: ``None`` = off,
        #: hot-path hooks pay one attribute load + ``is not None``.
        self.invariants: Optional[Any] = None


#: The one global observability state; hot paths read its attributes
#: directly.  All ``None`` = disabled = zero instrumentation cost.
OBS = ObsState()


def enabled() -> bool:
    """True if any observability instrument is currently on."""
    return (
        OBS.metrics is not None
        or OBS.trace is not None
        or OBS.profile is not None
        or OBS.invariants is not None
    )


def enable(
    metrics: bool = True, trace: bool = False, profile: bool = False
) -> ObsState:
    """Turn on the requested instruments (fresh instances) and return
    :data:`OBS`.  Instruments not requested are turned *off*."""
    OBS.metrics = MetricsRegistry() if metrics else None
    OBS.trace = TraceRecorder() if trace else None
    OBS.profile = PhaseProfiler() if profile else None
    return OBS


def disable() -> None:
    """Turn every instrument (and the invariant checker) off — the
    zero-cost default."""
    OBS.metrics = None
    OBS.trace = None
    OBS.profile = None
    OBS.invariants = None


@contextmanager
def collecting(metrics: bool = True, trace: bool = False, profile: bool = False):
    """Context manager: :func:`enable` on entry, restore the previous
    state on exit.  Yields :data:`OBS` with the fresh instruments."""
    previous = (OBS.metrics, OBS.trace, OBS.profile)
    try:
        yield enable(metrics=metrics, trace=trace, profile=profile)
    finally:
        OBS.metrics, OBS.trace, OBS.profile = previous


def cell_scope() -> Tuple[bool, bool]:
    """What an experiment *cell* should collect, derived from the
    caller's state: ``(metrics, trace)``.  Used by the parallel runner
    to replicate the driving process's collection mode inside workers."""
    return OBS.metrics is not None, OBS.trace is not None


def run_cell_collected(fn, args) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run one experiment cell under a *fresh* metrics registry and
    return ``(result, snapshot)``.

    This is the unit of deterministic metrics collection: both the
    serial and the multiprocess experiment paths run every cell through
    this function and merge the snapshots in cell order, which is what
    makes ``--metrics`` output byte-identical at any worker count.  The
    caller's trace recorder (if any) keeps accumulating — traces are a
    serial-only feature.
    """
    previous = OBS.metrics
    OBS.metrics = MetricsRegistry()
    try:
        result = fn(*args)
        return result, OBS.metrics.snapshot()
    finally:
        OBS.metrics = previous


def maybe_phase(name: str, sim: Optional[Any] = None):
    """``OBS.profile.phase(...)`` when profiling is on, else a no-op
    context manager — callers bracket phases unconditionally."""
    profiler = OBS.profile
    if profiler is not None:
        return profiler.phase(name, sim)
    return _NULL_CONTEXT


class _NullContext:
    """Reusable no-op context manager (no allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()
