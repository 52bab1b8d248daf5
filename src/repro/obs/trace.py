"""Structured trace recorder emitting Chrome ``trace_event`` JSON.

A :class:`TraceRecorder` accumulates events in the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``:
a top-level ``{"traceEvents": [...]}`` object whose events carry a
name, a phase (``"i"`` instant, ``"X"`` complete-with-duration, ``"C"``
counter), a timestamp in *microseconds*, and pid/tid lane ids.

Timestamps here are **simulated** time (``Simulator.now`` seconds
converted to µs), so the Perfetto timeline shows the experiment's
logical schedule, not wall clock: worm batch ticks, RPC
call→reply/timeout arcs, lookup spans and DHT fetch phases all land at
the instant they logically happened.  ``pid`` is always 0 (one
simulated world); ``tid`` groups events into lanes by subsystem
(:data:`LANES`).

Determinism: events append in callback execution order, which for a
fixed seed is fixed — two runs of the same experiment produce
byte-identical trace files.  ``tests/test_obs_trace.py`` relies on this
to assert the columnar worm engine and its oracle emit *identical*
logical traces.

``python -m repro.obs.trace --validate run.trace.json`` checks a file
against the subset of the trace_event schema this module emits (CI's
trace-smoke job runs exactly that).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Trace lane (``tid``) per subsystem — stable small ints so Perfetto
#: shows one named row per layer.
LANES: Dict[str, int] = {
    "sim": 0,
    "net": 1,
    "rpc": 2,
    "lookup": 3,
    "dht": 4,
    "worm": 5,
    "faults": 6,
    "experiment": 7,
}

#: Phases this recorder emits (and the validator accepts).
_PHASES = frozenset({"i", "X", "C", "M"})


class TraceRecorder:
    """Accumulates trace events; one per run, written once at the end."""

    __slots__ = ("events", "metadata")

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.metadata: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- emitters -------------------------------------------------------------

    def instant(
        self,
        name: str,
        ts_s: float,
        lane: str = "experiment",
        cat: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """One instantaneous event at simulated time ``ts_s`` seconds."""
        event: Dict[str, Any] = {
            "name": name,
            "ph": "i",
            "ts": ts_s * 1e6,
            "pid": 0,
            "tid": LANES.get(lane, LANES["experiment"]),
            "s": "t",
        }
        if cat is not None:
            event["cat"] = cat
        if args is not None:
            event["args"] = args
        self.events.append(event)

    def complete(
        self,
        name: str,
        ts_s: float,
        dur_s: float,
        lane: str = "experiment",
        cat: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A span: started at ``ts_s``, lasted ``dur_s`` (seconds)."""
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": ts_s * 1e6,
            "dur": dur_s * 1e6,
            "pid": 0,
            "tid": LANES.get(lane, LANES["experiment"]),
        }
        if cat is not None:
            event["cat"] = cat
        if args is not None:
            event["args"] = args
        self.events.append(event)

    def counter(
        self, name: str, ts_s: float, values: Dict[str, float],
        lane: str = "experiment",
    ) -> None:
        """A counter sample Perfetto renders as a stacked area track."""
        self.events.append({
            "name": name,
            "ph": "C",
            "ts": ts_s * 1e6,
            "pid": 0,
            "tid": LANES.get(lane, LANES["experiment"]),
            "args": dict(values),
        })

    # -- output ---------------------------------------------------------------

    def _lane_metadata(self) -> List[Dict[str, Any]]:
        used = {e["tid"] for e in self.events}
        return [
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": 0,
                "tid": tid,
                "args": {"name": lane},
            }
            for lane, tid in sorted(LANES.items(), key=lambda kv: kv[1])
            if tid in used
        ]

    def to_obj(self) -> Dict[str, Any]:
        """The full trace as a JSON-serialisable object."""
        return {
            "traceEvents": self._lane_metadata() + self.events,
            "displayTimeUnit": "ms",
            "otherData": dict(self.metadata),
        }

    def to_json(self) -> str:
        """Byte-stable JSON rendering of :meth:`to_obj`."""
        return json.dumps(self.to_obj(), sort_keys=True) + "\n"

    def write(self, path) -> Path:
        """Write the trace to ``path`` and return it."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json())
        return out


def validate_trace_obj(data: Any) -> List[str]:
    """Validate a parsed trace file; returns a list of problems
    (empty = valid against the emitted trace_event subset)."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' array"]
    if not events:
        errors.append("'traceEvents' is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing/empty 'name'")
        phase = event.get("ph")
        if phase not in _PHASES:
            errors.append(f"{where}: bad phase {phase!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: bad 'ts' {ts!r}")
        for lane_field in ("pid", "tid"):
            v = event.get(lane_field)
            if not isinstance(v, int) or isinstance(v, bool):
                errors.append(f"{where}: bad {lane_field!r} {v!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                errors.append(f"{where}: complete event with bad 'dur' {dur!r}")
        if phase == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: counter event without 'args'")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
    return errors


def validate_trace_file(path) -> List[str]:
    """Read + parse + validate one trace file; returns problems."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read trace: {exc}"]
    return validate_trace_obj(data)


def main(argv=None) -> int:
    """CLI: ``python -m repro.obs.trace --validate trace.json [...]``."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.trace",
        description="Validate Chrome trace_event JSON files.",
    )
    parser.add_argument("--validate", nargs="+", metavar="FILE", required=True,
                        help="trace files to check")
    args = parser.parse_args(argv)
    status = 0
    for path in args.validate:
        problems = validate_trace_file(path)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            count = len(json.loads(Path(path).read_text())["traceEvents"])
            print(f"ok: {path} ({count} events)")
    return status


if __name__ == "__main__":
    sys.exit(main())
