"""Bucket one ``cProfile`` run's self-time by layer.

The columnar engines push straight onto the kernel heap, so wrapping
``Simulator.schedule`` from outside sees nothing; a profile of the whole
repeat is the only outside view of where time goes below the public
calls.  Every profiled function is charged to exactly one layer:

* a function in ``src/repro`` by its module path, refined by function
  name inside ``repro/chord`` (one file there holds several layers);
* everything else — C built-ins, the standard library, numpy, and
  anonymous ``<lambda>``/``<genexpr>`` frames — to the layers of its
  callers, in proportion to the time pstats records per caller edge;
  ``heapq`` called from ``src/repro`` is always the kernel's (``sim``).

Unknown functions fall to their module's layer and unknown modules to
``other`` (reported as ``trace.unmapped_share``, never fatal), so a
refactor of ``src/`` moves time between buckets but cannot break this.
"""

from __future__ import annotations

import os
import pstats
import re
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim",
    "net",
    "chord.routing",
    "chord.rpc",
    "chord.maintenance",
    "chord.churn",
    "verme",
    "workload",
    "admission",
    "dht",
    "crypto",
    "overlay",
    "worm",
    "analysis",
    "other",
)

#: path below ``repro/`` (prefix match, first wins) -> layer
_MODULE_LAYER = (
    ("sim/", "sim"),
    ("net/", "net"),
    ("faults/", "net"),
    ("chord/admission.py", "admission"),
    ("chord/rpc.py", "chord.rpc"),
    ("chord/ring.py", "chord.churn"),
    ("chord/", "chord.routing"),
    ("verme/", "verme"),
    ("ids/sections.py", "verme"),
    ("ids/assignment.py", "verme"),
    ("ids/", "chord.routing"),
    ("workload/", "workload"),
    ("dht/", "dht"),
    ("crypto/", "crypto"),
    ("overlay/", "overlay"),
    ("worm/", "worm"),
    ("analysis/", "analysis"),
    ("experiments/builders.py", "chord.churn"),
    ("experiments/", "analysis"),
)

#: function-name refinements inside ``repro/chord`` (first match wins;
#: no match keeps the module's layer).  Covers both engines: the
#: columnar ``_ev_*`` handlers and the object graph's ``_h_*`` ones.
_CHORD_FUNCTION_LAYER = tuple(
    (re.compile(pattern), layer)
    for pattern, layer in (
        (r"^_(latency|delay)$", "net"),
        (r"^(_push|logical_events)$", "sim"),
        (r"fire|workload|^_record$|next_delay", "workload"),
        (r"kill|respawn|create|bootstrap|churn|join|crash|lifetime|death"
         r"|^build|start_static|start_timers", "chord.churn"),
        (r"stabil|fing|merge|replace|remove|pred\w*_reply|neighbor_dead|gc_"
         r"|notify|get_neighbors|ping", "chord.maintenance"),
        (r"call_info|_ev_req|reply_info|_ev_noop|to_dead|gn_reply", "chord.rpc"),
    )
)

_MAINTENANCE_LAYERS = ("chord.maintenance", "chord.churn")
Func = Tuple[str, int, str]


def _repro_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def direct_layer(func: Func, repro_root: str, suite_root: str) -> Optional[str]:
    """The layer a function's own code belongs to, or ``None`` when its
    time is its callers' (built-ins, stdlib, anonymous frames)."""
    filename, _, name = func
    if filename.startswith(suite_root):
        return "other"
    if not filename.startswith(repro_root) or name.startswith("<"):
        return None
    rel = filename[len(repro_root):].replace(os.sep, "/")
    for prefix, layer in _MODULE_LAYER:
        if rel.startswith(prefix):
            if rel.startswith("chord/"):
                for pattern, refined in _CHORD_FUNCTION_LAYER:
                    if pattern.search(name):
                        return refined
            return layer
    return "other"


def bucket(profile) -> Dict[str, float]:
    """``trace.*`` metrics of one profiled repeat: self-seconds per
    layer plus the maintenance-plane call counts."""
    stats = pstats.Stats(profile).stats
    repro_root = _repro_root()
    suite_root = os.path.dirname(os.path.abspath(__file__)) + os.sep
    direct = {f: direct_layer(f, repro_root, suite_root) for f in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, seen: frozenset = frozenset()) -> Dict[str, float]:
        """Layer -> fraction of ``func``'s time.  An indirect function
        splits over its caller edges: by the self-time pstats records
        per edge for the function asked about, by cumulative time
        further up (a wrapper's self-time says nothing about who the
        work was for).  Empty when every path up is a cycle."""
        layer = direct.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        is_heap = "heapq" in func[2]
        column = 3 if seen else 2
        out: Dict[str, float] = {}
        total = 0.0
        for caller, edge in stats[func][4].items() if func in stats else ():
            if caller in seen:
                continue
            if is_heap and direct.get(caller) is not None:
                up = {"sim": 1.0}  # the engines push onto the kernel heap inline
            else:
                up = shares(caller, seen | {func})
            if not up:
                continue
            weight = max(edge[column], 1e-12)
            total += weight
            for name, frac in up.items():
                out[name] = out.get(name, 0.0) + weight * frac
        result = {k: v / total for k, v in out.items()}
        if not seen:
            memo[func] = result
        return result

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = {"finger": 0, "stabilize": 0, "lookup": 0, "maintenance_lookup": 0}
    for func, (_, ncalls, self_s, _, callers) in stats.items():
        for layer, frac in (shares(func) or {"other": 1.0}).items():
            seconds[layer] += self_s * frac
        filename, _, name = func
        if not filename.startswith(repro_root + "chord" + os.sep):
            continue
        if name == "_finger_fixed":
            calls["finger"] += ncalls
        elif name == "_stabilize":
            calls["stabilize"] += ncalls
        elif name in ("_lookup", "lookup"):
            for caller, edge in callers.items():
                calls["lookup"] += edge[1]
                if direct.get(caller) in _MAINTENANCE_LAYERS:
                    calls["maintenance_lookup"] += edge[1]
    total = sum(seconds.values())
    out = {f"trace.{layer}.self_s": s for layer, s in seconds.items()}
    out["trace.unmapped_share"] = seconds["other"] / total if total else 0.0
    out["trace.chord.finger_lookups"] = calls["finger"]
    out["trace.chord.stabilize_rounds"] = calls["stabilize"]
    out["trace.chord.maintenance_lookup_share"] = (
        calls["maintenance_lookup"] / calls["lookup"] if calls["lookup"] else 0.0
    )
    return out
