"""The fidelity ledger: does this checkout still reproduce the paper?

``python -m repro.experiments.runner paper`` runs every section once at
its scale of record (:data:`SCALE`), turns the result rows into plain
dicts and judges each checkable claim (:data:`CLAIMS`) on them.  A
claim's ``measure`` reads only those rows, so the same code judges a
live run and the committed ``FIDELITY.json``.  The paper's known
deviations are claims with a ``deviation`` reason: a run is good exactly
when the failing claims are the declared deviations.  A run that
produced nothing raises :class:`DegenerateLedger` instead of being
judged.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..worm.scenarios import WormScenarioConfig
from .dht_ops import DhtExperimentConfig
from .fig5_lookup_latency import Fig5Config
from .fig8_worm_propagation import Fig8Config, summarise_fig8_runs
from .parallel import run_ablations_parallel, run_dht_parallel, run_fig5_parallel, run_fig8_cells
from .resilience import ResilienceConfig, run_resilience

#: Rows of one ledger run: section name -> plain-dict rows.
Rows = Dict[str, Any]
Measure = Callable[[Rows], float]

#: Each section at its scale of record.  fig5 simulates 40 minutes
#: instead of the paper's 12 h (the means settle within minutes) over
#: the ends and middle of its lifetime range; fig8 is one run of the
#: §7.3 population, whose run 0 draws seed ``seed + 1`` = 11.
SCALE: Dict[str, Any] = {
    "fig5": Fig5Config(num_nodes=1740, num_sections=128, duration_s=2400.0, warmup_s=300.0,
                       mean_lifetimes_s=(900.0, 3600.0, 28800.0), engine="columnar"),
    "dht": DhtExperimentConfig(1740, 128, num_puts=60, num_gets=60, seed=5),
    "fig8": Fig8Config(
        scenario_config=WormScenarioConfig(seed=10).with_paper_scale(), runs=1,
        horizons={"chord": 600.0, "verme": 600.0, "verme-secure": 600.0,
                  "verme-fast": 4000.0, "verme-compromise": 40000.0},
    ),
    "resilience": ResilienceConfig(),
    "ablations": WormScenarioConfig(num_nodes=3000, num_sections=128, seed=9),
}

#: Ablation worm runs stop at this simulated time.
ABLATION_UNTIL_S = 200.0

#: Row fields that count what a section did; zero means it did nothing.
COUNTS = ("lookups", "operations", "vulnerable")

#: Fields that name a row in error messages.
ROW_KEYS = ("system", "scenario", "operation", "mean_lifetime_s", "type_bits")


class DegenerateLedger(ValueError):
    """A section produced nothing to judge, or a claim measured NaN."""


def run_ledger(configs: Dict[str, Any] = SCALE, workers: int = 1) -> Dict[str, Any]:
    """Run every section at ``configs`` and judge every claim; returns
    the record (``configs``, ``rows``, ``claims``) :func:`dumps` writes."""
    fig8 = run_fig8_cells(configs["fig8"], workers=workers)
    ablations = run_ablations_parallel(configs["ablations"], ABLATION_UNTIL_S, workers=workers)
    dht = run_dht_parallel(configs["dht"], workers=workers)
    rows: Rows = {
        "fig5": [asdict(r) for r in run_fig5_parallel(configs["fig5"], workers=workers)],
        "dht": [asdict(row) for result in dht for row in result.rows()],
        "fig8": [asdict(summarise_fig8_runs(s, runs)) for s, runs in fig8.items()],
        "resilience": [asdict(r) for r in run_resilience(configs["resilience"])],
        "ablations": {
            name: [asdict(r) for r in result] if isinstance(result, list) else asdict(result)
            for name, result in ablations.items()
        },
    }
    return {
        "configs": {name: asdict(cfg) for name, cfg in configs.items()},
        "rows": rows,
        "claims": judge(rows),
    }


# -- claims --------------------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """The open interval a measured value must fall in."""

    lo: float = -math.inf
    hi: float = math.inf

    def __call__(self, value: float) -> bool:
        return self.lo < value < self.hi

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"> {_fmt(self.lo)}"
        if self.lo == -math.inf:
            return f"< {_fmt(self.hi)}"
        return f"({_fmt(self.lo)}, {_fmt(self.hi)})"


def above(lo: float) -> Bound:
    """Holds for values strictly above ``lo``."""
    return Bound(lo=lo)


def below(hi: float) -> Bound:
    """Holds for values strictly below ``hi``."""
    return Bound(hi=hi)


@dataclass(frozen=True)
class Claim:
    """What the paper says, how to measure it from the rows, and the
    bound the measurement must hold."""

    name: str
    paper: str
    measure: Measure
    holds: Bound
    deviation: Optional[str] = None


LAT, BYTES = "mean_latency_s", "mean_bytes"
DHASH, FAST, SECURE, COMP = "dhash", "fast-verdi", "secure-verdi", "compromise-verdi"


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _pick(rows: Rows, section: str, field: str, **match: Any) -> List[Any]:
    """``field`` of every row of ``section`` whose fields equal ``match``."""
    return [r[field] for r in rows[section] if all(r[k] == v for k, v in match.items())]


def _at(section: str, field: str, agg: Callable = _mean, **match: Any) -> Measure:
    """``agg`` of ``field`` over the matching rows of ``section``."""
    return lambda rows: agg(_pick(rows, section, field, **match))


def _ratio(num: Measure, den: Measure) -> Measure:
    return lambda rows: num(rows) / den(rows)


def _steps(*measures: Measure) -> Measure:
    """The smallest ratio between neighbours (> 1: strictly increasing)."""
    return lambda rows: min(b(rows) / a(rows) for a, b in zip(measures, measures[1:]))


def _dht(op: str, field: str, *systems: str, agg: Callable = max) -> Measure:
    """``agg`` of ``field`` over the ``systems``' gets or puts."""
    return lambda rows: agg(
        v for s in systems for v in _pick(rows, "dht", field, operation=op, system=s)
    )


def _lifetime_spread(rows: Rows) -> float:
    """Max minus min over lifetimes of transitive over Verme latency."""
    ratios = [t / v for t, v in zip(_pick(rows, "fig5", LAT, system="chord-transitive"),
                                    _pick(rows, "fig5", LAT, system="verme"))]
    return max(ratios) - min(ratios)


def _worm(scenario: str, field: str) -> Measure:
    return _at("fig8", field, scenario=scenario)


def _share(scenario: str) -> Measure:
    return _ratio(_worm(scenario, "final_infected"), _worm(scenario, "vulnerable"))


def _ablation(name: str, field: str, per: Optional[str] = "vulnerable") -> Measure:
    return lambda rows: rows["ablations"][name][field] / (
        rows["ablations"][name][per] if per else 1
    )


CLAIMS: Tuple[Claim, ...] = (
    # Fig. 5, and the §7.1.2 text metrics.
    Claim("fig5.transitive_below_verme", "transitive Chord ~35% below Verme "
          "(transitive over Verme, mean latency)",
          _ratio(_at("fig5", LAT, system="chord-transitive"), _at("fig5", LAT, system="verme")),
          Bound(0.55, 0.75)),
    Claim("fig5.recursive_matches_verme", "recursive Chord ≈ Verme (recursive over Verme)",
          _ratio(_at("fig5", LAT, system="chord-recursive"), _at("fig5", LAT, system="verme")),
          Bound(0.9, 1.1)),
    Claim("fig5.flat_in_lifetime", "node dynamics barely affect the comparison (spread "
          "of transitive over Verme across lifetimes)",
          _lifetime_spread, below(0.05)),
    Claim("fig5.failure_rate_low", "lookup failure rates similar and low (worst cell)",
          _at("fig5", "failure_rate", agg=max), below(0.01)),
    Claim("fig5.maintenance_same_order", "maintenance bandwidth similar (Verme over "
          "recursive Chord)",
          _ratio(_at("fig5", "maintenance_bytes_per_node_s", system="verme"),
                 _at("fig5", "maintenance_bytes_per_node_s", system="chord-recursive")),
          Bound(0.5, 2.0)),
    # Fig. 6: DHT operation latency.
    Claim("fig6.get_fast_near_dhash", "get: Fast-VerDi ≈ DHash (Fast over DHash)",
          _ratio(_dht("get", LAT, FAST), _dht("get", LAT, DHASH)), Bound(0.8, 1.2)),
    Claim("fig6.get_compromise_above_fast", "get: Compromise-VerDi up to 31% slower "
          "(over the faster of DHash and Fast)",
          _ratio(_dht("get", LAT, COMP), _dht("get", LAT, DHASH, FAST, agg=min)),
          Bound(1.0, 1.5)),
    Claim("fig6.get_secure_highest", "get: Secure-VerDi slowest (over the next slowest)",
          _ratio(_dht("get", LAT, SECURE), _dht("get", LAT, DHASH, FAST, COMP)), above(1.0)),
    Claim("fig6.put_dhash_lowest", "put: every VerDi variant pays extra (fastest "
          "VerDi over DHash)",
          _ratio(_dht("put", LAT, FAST, SECURE, COMP, agg=min), _dht("put", LAT, DHASH)),
          above(1.5)),
    Claim("fig6.put_secure_highest", "put: Secure-VerDi slowest (over the next slowest)",
          _ratio(_dht("put", LAT, SECURE), _dht("put", LAT, DHASH, FAST, COMP)), above(1.0),
          deviation="Compromise-VerDi's put (two extra lookups) costs more than Secure's "
          "per-hop transfers here; their order depends on the unpublished GT-ITM "
          "bandwidth constants"),
    # Fig. 7: DHT operation bandwidth.
    Claim("fig7.get_fast_near_dhash", "get: Fast-VerDi ≈ DHash (bytes, Fast over DHash)",
          _ratio(_dht("get", BYTES, FAST), _dht("get", BYTES, DHASH)), below(1.15)),
    Claim("fig7.get_compromise_doubles", "get: Compromise-VerDi approximately doubles "
          "bandwidth (over DHash)",
          _ratio(_dht("get", BYTES, COMP), _dht("get", BYTES, DHASH)), Bound(1.4, 2.5)),
    Claim("fig7.get_secure_highest", "get: Secure-VerDi pays a transfer per hop (over "
          "the next highest)",
          _ratio(_dht("get", BYTES, SECURE), _dht("get", BYTES, DHASH, FAST, COMP)),
          above(2.0)),
    Claim("fig7.put_fast_extra_copy", "put: Fast-VerDi adds a cross-type copy (over DHash)",
          _ratio(_dht("put", BYTES, FAST), _dht("put", BYTES, DHASH)), above(1.5)),
    Claim("fig7.put_compromise_above_fast", "put: Compromise-VerDi adds the relay leg "
          "(over Fast)",
          _ratio(_dht("put", BYTES, COMP), _dht("put", BYTES, FAST)), above(1.0)),
    Claim("fig7.put_secure_per_hop", "put: Secure-VerDi pays a transfer per hop (over DHash)",
          _ratio(_dht("put", BYTES, SECURE), _dht("put", BYTES, DHASH)), above(3.0)),
    # Fig. 8: worm propagation.
    Claim("fig8.chord_sweeps", "Chord: every vulnerable node infected (share)",
          _share("chord"), above(0.99)),
    Claim("fig8.chord_fast", "Chord: the sweep takes seconds (t95, s)",
          _worm("chord", "time_to_95pct_s"), below(60.0)),
    Claim("fig8.chord_sweep_time", "Chord: full sweep in ~32 s (t95, s)",
          _worm("chord", "time_to_95pct_s"), Bound(16.0, 64.0),
          deviation="our worm scans a deduplicated queue of routing entries where the "
          "paper's rescans a hit list with collisions, so Chord saturates ~2x sooner "
          "(DESIGN.md §7); the containment shape is unaffected"),
    Claim("fig8.verme_one_section", "Verme: confined to one ~24-node section (nodes)",
          _worm("verme", "final_infected"), Bound(0.0, 48.0)),
    Claim("fig8.secure_logarithmic", "Secure-VerDi + impersonator: ~352 nodes (nodes)",
          _worm("verme-secure", "final_infected"), Bound(176.0, 704.0)),
    Claim("fig8.secure_contained", "Secure-VerDi + impersonator: log-many sections (share)",
          _share("verme-secure"), below(0.02)),
    Claim("fig8.final_order", "containment order Verme < Secure < Fast (smallest ratio "
          "of infected nodes)",
          _steps(*(_worm(s, "final_infected") for s in ("verme", "verme-secure", "verme-fast"))),
          above(1.0)),
    Claim("fig8.fast_spreads", "Fast-VerDi + impersonator eventually infects the type "
          "(share)", _share("verme-fast"), above(0.99)),
    Claim("fig8.compromise_spreads", "Compromise-VerDi + impersonator eventually infects "
          "the type (share)", _share("verme-compromise"), above(0.99)),
    Claim("fig8.fast_t50", "Fast-VerDi + impersonator: ~160 s to half the vulnerable "
          "nodes (t50, s)", _worm("verme-fast", "time_to_50pct_s"), Bound(80.0, 320.0)),
    Claim("fig8.compromise_t50", "Compromise-VerDi + impersonator: ~1600 s to half "
          "(t50, s)", _worm("verme-compromise", "time_to_50pct_s"), Bound(800.0, 3200.0)),
    Claim("fig8.compromise_t50_gap", "Compromise ~10x slower than Fast (t50 ratio)",
          _ratio(_worm("verme-compromise", "time_to_50pct_s"),
                 _worm("verme-fast", "time_to_50pct_s")), Bound(5.0, 20.0)),
    Claim("fig8.compromise_tail_slower", "Compromise slower than Fast to 95% too (t95 "
          "ratio)", _ratio(_worm("verme-compromise", "time_to_95pct_s"),
                           _worm("verme-fast", "time_to_95pct_s")), above(3.0)),
    # Resilience: partition and heal, both systems (beyond the paper).
    Claim("resilience.lookups", "a lookup workload runs (fewest lookups)",
          _at("resilience", "lookups", agg=min), above(100.0)),
    Claim("resilience.partition_dips", "success dips during the partition (smallest "
          "before - during)", lambda rows: min(r["pre_success_rate"] - r[
              "partition_success_rate"] for r in rows["resilience"]), above(0.0)),
    Claim("resilience.recovers", "success recovers after the heal (smallest after - "
          "during)", lambda rows: min(r["post_success_rate"] - r[
              "partition_success_rate"] for r in rows["resilience"]), above(0.0)),
    Claim("resilience.post_success", "lookups succeed after the heal (lowest rate)",
          _at("resilience", "post_success_rate", agg=min), above(0.95)),
    Claim("resilience.ring_tears", "the successor ring visibly tears (highest minimum "
          "coherence)", _at("resilience", "min_ring_coherence", agg=max), below(0.9)),
    Claim("resilience.rpc_timeouts", "the failure detector times out (fewest)",
          _at("resilience", "rpc_timeouts", agg=min), above(0.0)),
    Claim("resilience.rpc_retransmits", "backoff retransmits (fewest)",
          _at("resilience", "rpc_retransmits", agg=min), above(0.0)),
    Claim("resilience.partition_drops", "the partition severs messages (fewest drops)",
          _at("resilience", "partition_drops", agg=min), above(0.0)),
    Claim("resilience.verme_repairs_faster", "Verme re-knits the ring faster (Chord's "
          "repair time over Verme's)",
          _ratio(_at("resilience", "repair_time_s", system="chord"),
                 _at("resilience", "repair_time_s", system="verme")), above(1.5)),
    # Ablations (DESIGN.md §4).
    Claim("ablations.a1_displacement_contains", "§4.4 displaced fingers contain the "
          "worm (infected share)", _ablation("naive_finger", "infected_with_displacement"),
          below(0.05)),
    Claim("ablations.a1_naive_escapes", "with naive Chord fingers it escapes (infected "
          "share)", _ablation("naive_finger", "infected_naive_fingers"), above(0.9)),
    Claim("ablations.a2_two_sections_survive", "§5.2 two-section replicas survive a "
          "type-wide outbreak (readable keys)",
          _ablation("availability", "survivors_two_sections", per=None), above(0.99)),
    Claim("ablations.a2_single_section_lost", "single-section replicas do not (readable "
          "keys)", _ablation("availability", "survivors_single_section", per=None),
          below(0.6)),
    Claim("ablations.a3_corner_rule_balance", "§4.4 corner rule's load cost is "
          "negligible (Gini difference)",
          lambda rows: abs(rows["ablations"]["load"]["verme"]["gini"]
                           - rows["ablations"]["load"]["chord"]["gini"]), below(0.02)),
    Claim("ablations.a4_multitype_contained", "containment holds with 2, 4 and 8 types "
          "(worst infected share)",
          lambda rows: max(r["infected"] / r["vulnerable"]
                           for r in rows["ablations"]["multitype"]), below(0.1)),
    Claim("ablations.a5_tracker_contains", "§6.2 a containment tracker confines the "
          "worm (infected share)", _ablation("tracker", "infected_containment"), below(0.1)),
    Claim("ablations.a5_conventional_spreads", "a conventional tracker does not "
          "(infected share)", _ablation("tracker", "infected_conventional"), above(0.8)),
    Claim("ablations.a6_fragments_cheaper", "§5.1 (3, 6) fragments place a block for "
          "~k/n of replication's bytes (fragmented over replicated)",
          _ablation("fragments", "fragmented_bytes", per="replicated_bytes"), below(0.5)),
)


# -- judging -------------------------------------------------------------------


def _leaves(node: Any, path: str) -> Iterator[Tuple[str, Any]]:
    """Every leaf of the rows as (path, value), list items named by ROW_KEYS."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            label = "/".join(str(item[k]) for k in ROW_KEYS if k in item) or i
            yield from _leaves(item, f"{path}[{label}]")
    else:
        yield path, node


def judge(rows: Rows) -> List[Dict[str, Any]]:
    """One verdict per claim, measured on ``rows``; raises
    :class:`DegenerateLedger` on a non-finite value or a zero count in
    the rows (naming the row) or a claim with nothing to measure."""
    for path, value in _leaves(rows, "rows"):
        if isinstance(value, float) and not math.isfinite(value):
            raise DegenerateLedger(f"{path} is {value!r}")
        if path.rsplit(".", 1)[-1] in COUNTS and value == 0:
            raise DegenerateLedger(f"{path} is 0: the section did nothing")
    verdicts = []
    for claim in CLAIMS:
        try:
            measured = float(claim.measure(rows))
        except (TypeError, ValueError, ZeroDivisionError, KeyError) as exc:
            # A quantity the run never reached (None), or no row to read.
            raise DegenerateLedger(f"claim {claim.name}: nothing to measure ({exc!r})") from exc
        if not math.isfinite(measured):
            raise DegenerateLedger(f"claim {claim.name}: measured {measured!r}")
        verdicts.append({"name": claim.name, "paper": claim.paper, "bound": str(claim.holds),
                         "measured": measured, "holds": claim.holds(measured),
                         "deviation": claim.deviation})
    return verdicts


def unexpected(record: Dict[str, Any]) -> List[str]:
    """Claims whose verdict disagrees with the declared deviations: a
    failing claim with no deviation, or a deviation that now holds."""
    return [v["name"] for v in record["claims"] if v["holds"] == (v["deviation"] is not None)]


def dumps(record: Dict[str, Any]) -> str:
    """The record as the text of ``FIDELITY.json``."""
    return json.dumps(record, indent=1) + "\n"


# -- rendering -------------------------------------------------------------------

#: A ledger block of a markdown file: ``<!-- ledger:NAME -->`` ...
#: ``<!-- /ledger:NAME -->``; :func:`render` owns everything between.
BLOCK_RE = re.compile(r"(<!-- ledger:(\w+) -->\n)(.*?)(<!-- /ledger:\2 -->)", re.S)

#: The rows each block shows above its claims (block name = claim prefix).
ROW_TABLES = {"fig5": "fig5", "fig6": "dht", "fig8": "fig8", "resilience": "resilience"}


def _fmt(value: Any) -> str:
    if value is None or isinstance(value, (str, int)):
        return "-" if value is None else str(value)
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def _table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    return ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)] + [
        "| " + " | ".join(map(_fmt, row)) + " |" for row in rows
    ]


def render(record: Dict[str, Any]) -> Dict[str, str]:
    """The body of every ledger block: the block's rows, one line per
    claim, and the reason of each known deviation."""
    blocks: Dict[str, List[str]] = {}
    for name, section in ROW_TABLES.items():
        rows = record["rows"][section]
        blocks[name] = _table(list(rows[0]), [list(r.values()) for r in rows]) + [""]
    claims: Dict[str, List[Dict[str, Any]]] = {}
    for v in record["claims"]:
        claims.setdefault(v["name"].split(".", 1)[0], []).append(v)
    out = {}
    for name, verdicts in claims.items():
        lines = blocks.get(name, []) + _table(
            ["claim", "paper", "measured", "bound", "verdict"],
            [[f"`{v['name']}`", v["paper"], v["measured"], v["bound"],
              "holds" if v["holds"] else "known deviation" if v["deviation"] else "**FAILS**"]
             for v in verdicts])
        lines += [f"\nKnown deviation `{v['name']}`: {v['deviation']}."
                  for v in verdicts if v["deviation"]]
        out[name] = "\n".join(lines) + "\n"
    return out


def splice(text: str, blocks: Dict[str, str]) -> str:
    """``text`` with the body of every ledger block replaced from ``blocks``."""
    return BLOCK_RE.sub(lambda m: m.group(1) + blocks.get(m.group(2), m.group(3)) + m.group(4),
                        text)
