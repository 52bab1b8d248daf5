"""The five benchmark workloads, composed from ``repro``'s public calls.

Each ``*_cell`` function builds one experiment cell the way the driver
of record does (``run_cell_instrumented``, ``run_overload_cell``,
``run_dht_cell_instrumented``, ``run_scenario``) — same calls, same
RNG-stream order, hence the same result rows (``test_suite.py`` pins
that) — but with a :class:`Spans` recorder around every public call,
so the time of each layer boundary is measured from outside ``src/``.

Only generated inputs reach ``repro``: ``--seed`` becomes the config
seed, from which the drivers' own ``derive_seed`` names every stream.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.stats import LookupStats, OperationStats
from repro.chord.admission import AdmissionStats, NodeAdmission
from repro.chord.columnar import ColumnarEngine, frozen_gc
from repro.chord.lookup import LookupStyle
from repro.dht.base import DhtConfig
from repro.experiments import (
    DHT_SYSTEMS,
    DhtCellResult,
    DhtExperimentConfig,
    Fig5Config,
    build_ring,
    summarise_fig8_runs,
)
from repro.experiments.overload import POLICIES, OverloadConfig
from repro.experiments.records import Fig5Row, OverloadRow
from repro.ids.sections import VermeIdLayout
from repro.net.gtitm import GtItmConfig, gtitm_topology
from repro.net.king import KingCoordinates
from repro.net.network import Network
from repro.sim import RngRegistry, Simulator, derive_seed
from repro.workload import ServingStats, build_generator
from repro.worm import (
    ColumnarWormSimulation,
    CompromiseVerDiHarvester,
    FastVerDiHarvester,
    ImpersonatorKnowledge,
    WormRunResult,
    WormScenarioConfig,
    build_chord_population,
    build_verme_population,
    chord_knowledge,
    verme_knowledge,
)

FIG5_SYSTEMS = ("chord-transitive", "chord-recursive", "verme")
WORM_SCENARIOS = ("chord", "verme", "verme-fast", "verme-compromise")
MEAN_LIFETIME_S = 1800.0

#: Spans that make up ``setup_s`` (everything before the first measured
#: event); ``RUN_PREFIXES`` make up ``run_wall_s``.
SETUP_SPANS = (
    "net.latency_build_s",
    "chord.ring_build_s",
    "overlay.population_build_s",
    "worm.knowledge_build_s",
)
RUN_PREFIXES = ("sim.run_wall_s.", "dht.put_phase_wall_s.", "dht.get_phase_wall_s.")


class DegenerateRun(RuntimeError):
    """A cell that would produce a plausible-looking but empty record
    (zero operations, NaN metric, warmup past the horizon, no nodes)."""


class Spans:
    """Phase spans kept in memory: name, start, end, parent, repeat."""

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self.repeat = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        row = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "repeat": self.repeat,
        }
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, repeat: int) -> Dict[str, float]:
        """Summed duration per span name within one repeat."""
        out: Dict[str, float] = {}
        for row in self.rows:
            if row["repeat"] == repeat:
                out[row["name"]] = out.get(row["name"], 0.0) + row["end"] - row["start"]
        return out


@dataclass
class Cell:
    """What one repeat of a workload produced."""

    rows: list                      # result rows, as the driver returns them
    events: int                     # logical events (engine-comparable)
    kernel_events: int              # raw kernel callbacks
    ops: int                        # simulated application operations
    ops_failed: int                 # of those, failed where success is expected
    counts: Dict[str, float]        # exact per-layer counts
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """sha256 over the result rows and the logical event count."""
        text = repr([asdict(r) for r in self.rows]) + f"|{self.events}"
        return hashlib.sha256(text.encode()).hexdigest()


def _guard(workload: str, ok: bool, what: str) -> None:
    if not ok:
        raise DegenerateRun(f"{workload}: {what}")


def _check_finite(workload: str, rows: list) -> None:
    for row in rows:
        for name, value in asdict(row).items():
            _guard(
                workload,
                not isinstance(value, float) or math.isfinite(value),
                f"non-finite {name}={value!r} in {row!r}",
            )


# -- live protocol on the columnar engine (fig5 / ring-scale / serving) -----


@dataclass
class _LiveRun:
    sim: Simulator
    network: Network
    engine: ColumnarEngine
    stats: LookupStats
    admission: AdmissionStats
    generator: object


def _live_run(
    spans: Spans,
    workload: str,
    config,
    rngs: RngRegistry,
    system: str,
    lifetime_s: Optional[float] = None,
    policy: Optional[str] = None,
) -> _LiveRun:
    """Build and run one columnar live cell.  ``config`` is a
    ``Fig5Config`` (churn, no admission) or an ``OverloadConfig``
    (``policy`` set: admission + Zipf spike generator, no churn); the
    run span is named after the policy if there is one, else the system."""
    _guard(workload, config.num_nodes > 0, "empty population")
    _guard(
        workload,
        config.warmup_s < config.duration_s,
        f"warmup {config.warmup_s}s >= horizon {config.duration_s}s "
        "(the run would measure zero lookups)",
    )
    sim = Simulator()
    with spans.span("net.latency_build_s"):
        king_seed = rngs.stream("king").randrange(2**31)
        latency = KingCoordinates(
            num_hosts=config.num_nodes, mean_rtt_s=config.mean_rtt_s, seed=king_seed
        )
        network = Network(sim, latency)
    with spans.span("chord.ring_build_s"):
        overlay_cfg = config.overlay_config()
        layout = None
        if system == "verme":
            layout = VermeIdLayout.for_sections(overlay_cfg.space, config.num_sections)
        style = (
            LookupStyle.TRANSITIVE
            if system == "chord-transitive"
            else LookupStyle.RECURSIVE
        )
        engine = ColumnarEngine(sim, network, overlay_cfg, layout)
        adm_stats = AdmissionStats()
        generator = None
        stats = LookupStats()
        if policy is not None:
            service = config.policy(policy)
            generator = build_generator(
                config.workload,
                config.overload,
                overlay_cfg.space.bits,
                config.mean_lookup_interval_s,
                config.duration_s,
                config.warmup_s,
            )
            stats = ServingStats(sim)
            engine.set_admission(lambda: NodeAdmission(service, adm_stats))
        engine.build(config.num_nodes, rngs)
        if lifetime_s is not None:
            engine.start_churn(rngs.stream("churn"), lifetime_s)
        engine.start_workload(
            rngs.stream("workload"),
            style,
            config.mean_lookup_interval_s,
            stats,
            config.warmup_s,
            generator=generator,
        )
    with spans.span(f"sim.run_wall_s.{policy or system}"):
        with frozen_gc():
            sim.run(until=config.duration_s)
    return _LiveRun(sim, network, engine, stats, adm_stats, generator)


class _LiveTotals:
    """Exact counts of a live cell, summed over its systems / arms as
    each finishes (so only one engine is alive at a time, as in the
    drivers)."""

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.kernel_events = 0
        self.lookups = 0
        self.failures = 0
        self.successes = 0
        self.hops = 0
        self.latency_s = 0.0
        self.messages = 0
        self.bytes = 0
        self.maintenance_bytes = 0

    def add(self, run: _LiveRun, duration_s: float) -> int:
        """Fold one finished run in; returns its logical event count."""
        events = run.engine.logical_events(duration_s)
        accounting = run.network.accounting
        self.runs += 1
        self.events += events
        self.kernel_events += run.sim.events_processed
        self.lookups += run.stats.total
        self.failures += run.stats.failures
        self.successes += run.stats.successes
        self.hops += sum(run.stats.hops)
        self.latency_s += sum(run.stats.latencies_s)
        self.messages += accounting.total_messages
        self.bytes += accounting.total_bytes
        self.maintenance_bytes += accounting.category_bytes("maintenance")
        return events

    def counts(self, config) -> Dict[str, float]:
        return {
            "chord.lookups": self.lookups,
            "chord.lookup_failures": self.failures,
            "chord.mean_hops": self.hops / max(1, self.successes),
            "chord.mean_latency_sim_s": self.latency_s / max(1, self.successes),
            "net.messages": self.messages,
            "net.bytes": self.bytes,
            "net.maintenance_bytes_per_node_s": self.maintenance_bytes
            / (self.runs * config.num_nodes * config.duration_s),
        }


def fig5_cell(
    spans: Spans, workload: str, config: Fig5Config, systems=FIG5_SYSTEMS
) -> Cell:
    """Fig. 5 systems in sequence at one lifetime, under churn."""
    totals = _LiveTotals()
    rows = []
    for system in systems:
        rngs = RngRegistry(
            derive_seed(config.seed, f"fig5:{system}:{MEAN_LIFETIME_S}:0")
        )
        run = _live_run(
            spans, workload, config, rngs, system, lifetime_s=MEAN_LIFETIME_S
        )
        with spans.span("analysis.summarise_s"):
            totals.add(run, config.duration_s)
            _guard(workload, run.stats.total > 0, f"{system} measured zero lookups")
            latency = run.stats.latency_summary()
            rows.append(
                Fig5Row(
                    system=system,
                    mean_lifetime_s=MEAN_LIFETIME_S,
                    mean_latency_s=latency.mean,
                    median_latency_s=latency.median,
                    mean_hops=run.stats.hops_summary().mean,
                    failure_rate=run.stats.failure_rate,
                    lookups=run.stats.total,
                    maintenance_bytes_per_node_s=run.network.accounting.category_bytes(
                        "maintenance"
                    )
                    / (config.num_nodes * config.duration_s),
                )
            )
    _check_finite(workload, rows)
    return Cell(
        rows=rows,
        events=totals.events,
        kernel_events=totals.kernel_events,
        ops=totals.lookups,
        ops_failed=totals.failures,
        counts=totals.counts(config),
    )


def check_fig5(cell: Cell) -> None:
    """Paper Fig. 5 shape: few failures, transitive fastest, Verme
    about as fast as recursive Chord."""
    by = {row.system: row for row in cell.rows}
    for row in cell.rows:
        if row.failure_rate > 0.02:
            cell.problems.append(f"{row.system} failure rate {row.failure_rate:.3f} > 2%")
    if {"chord-transitive", "chord-recursive"} <= by.keys():
        if not by["chord-transitive"].mean_latency_s < by["chord-recursive"].mean_latency_s:
            cell.problems.append("chord-transitive is not faster than chord-recursive")
    if {"verme", "chord-recursive"} <= by.keys():
        ratio = by["verme"].mean_latency_s / by["chord-recursive"].mean_latency_s
        if abs(ratio - 1.0) > 0.25:
            cell.problems.append(f"verme/chord-recursive latency ratio {ratio:.2f}")


def serving_cell(spans: Spans, workload: str, config: OverloadConfig) -> Cell:
    """Both arms of the overload experiment (shed, then noshed)."""
    totals = _LiveTotals()
    rows = []
    for policy in POLICIES:
        rngs = RngRegistry(derive_seed(config.seed, f"overload:{policy}:r0"))
        run = _live_run(spans, workload, config, rngs, config.system, policy=policy)
        with spans.span("analysis.summarise_s"):
            totals.add(run, config.duration_s)
            stats = run.stats
            _guard(workload, stats.successes > 0, f"{policy} arm completed zero lookups")
            t0, t1 = run.generator.overload_window
            rows.append(
                OverloadRow(
                    policy=policy,
                    lookups=stats.total,
                    successes=stats.successes,
                    failures=stats.failures,
                    shed_rate=run.admission.shed_rate,
                    shed_queue=run.admission.shed_queue,
                    p50_latency_s=stats.p50_latency_s,
                    p99_latency_s=stats.p99_latency_s,
                    p999_latency_s=stats.p999_latency_s,
                    goodput_pre_per_s=stats.goodput_per_s(config.warmup_s, t0),
                    goodput_overload_per_s=stats.goodput_per_s(t0, t1),
                    goodput_post_per_s=stats.goodput_per_s(t1, config.duration_s),
                )
            )
    _check_finite(workload, rows)
    shed = rows[0]
    counts = totals.counts(config)
    counts.update(
        {
            "workload.arrivals": totals.lookups,
            "admission.shed_rate": sum(r.shed_rate for r in rows),
            "admission.shed_queue": sum(r.shed_queue for r in rows),
            "serving.p99_latency_sim_s": shed.p99_latency_s,
            "serving.goodput_post_per_s": shed.goodput_post_per_s,
        }
    )
    # Shed and timed-out lookups are this experiment's designed outcome
    # (reported above as counts), so they are not failed operations.
    return Cell(
        rows=rows,
        events=totals.events,
        kernel_events=totals.kernel_events,
        ops=totals.lookups,
        ops_failed=0,
        counts=counts,
    )


def check_serving(cell: Cell) -> None:
    """Shedding holds goodput across the spike; the control collapses."""
    shed, noshed = cell.rows
    if abs(shed.goodput_post_per_s / shed.goodput_pre_per_s - 1.0) > 0.20:
        cell.problems.append(
            f"shed goodput {shed.goodput_pre_per_s:.2f} -> "
            f"{shed.goodput_post_per_s:.2f}/s moved more than 20%"
        )
    if not noshed.goodput_post_per_s < shed.goodput_post_per_s:
        cell.problems.append("noshed post-spike goodput is not below the shed arm")


# -- DHT put/get on the object engine (fig6/7) ------------------------------


#: Simulated seconds the driver of record lets each DHT phase drain.
DHT_DRIVER_DRAIN_S = 60.0


def dht_cell(
    spans: Spans,
    workload: str,
    config: DhtExperimentConfig,
    drain_s: float = DHT_DRIVER_DRAIN_S,
) -> Cell:
    """All four DHT systems: puts, then gets of the stored blocks.
    Each phase runs ``drain_s`` past its last issued operation."""
    _guard(workload, config.num_nodes > 0, "empty population")
    _guard(workload, config.num_puts > 0 and config.num_gets > 0, "zero operations")
    results: List[DhtCellResult] = []
    kernel_events = messages = net_bytes = 0
    for system, (layer_cls, needs_verme) in DHT_SYSTEMS.items():
        rngs = RngRegistry(derive_seed(config.seed, f"dht:{system}"))
        sim = Simulator()
        with spans.span("net.latency_build_s"):
            topology = gtitm_topology(
                GtItmConfig(
                    num_hosts=config.num_nodes,
                    seed=rngs.stream("gtitm").randrange(2**31),
                )
            )
            network = Network(
                sim, topology.host_latency, bandwidth_model=topology.host_bandwidth
            )
        with spans.span("chord.ring_build_s"):
            overlay_cfg = config.overlay_config()
            layout = None
            if needs_verme:
                layout = VermeIdLayout.for_sections(
                    overlay_cfg.space, config.num_sections
                )
            ring = build_ring(sim, network, overlay_cfg, config.num_nodes, rngs, layout)
            dht_cfg = DhtConfig(num_replicas=config.num_replicas)
            layers = [layer_cls(node, dht_cfg) for node in ring.nodes]
            for layer in layers:
                layer.start()
            workload_rng = rngs.stream("ops")
            payload_rng = rngs.stream("payloads")
            values = [
                payload_rng.randbytes(config.block_bytes)
                for _ in range(config.num_puts)
            ]
        get_stats = OperationStats()
        put_stats = OperationStats()
        accounting = network.accounting
        stored_keys: List[int] = []

        def record(stats: OperationStats) -> Callable:
            def _cb(result) -> None:
                stats.record(
                    result.ok, result.latency_s, accounting.bytes_for_op(result.op_tag)
                )
                if result.ok and result.op == "put":
                    stored_keys.append(result.key)

            return _cb

        with spans.span(f"dht.put_phase_wall_s.{system}"):
            for i, value in enumerate(values):
                layer = workload_rng.choice(layers)
                sim.schedule(
                    i * config.op_interval_s,
                    lambda l=layer, v=value: l.put(v, record(put_stats)),
                )
            sim.run(until=config.num_puts * config.op_interval_s + drain_s)
        _guard(workload, bool(stored_keys), f"{system} stored zero blocks")
        with spans.span(f"dht.get_phase_wall_s.{system}"):
            base = sim.now
            for i in range(config.num_gets):
                key = workload_rng.choice(stored_keys)
                layer = workload_rng.choice(layers)
                sim.schedule(
                    base - sim.now + i * config.op_interval_s,
                    lambda l=layer, k=key: l.get(k, record(get_stats)),
                )
            sim.run(until=base + config.num_gets * config.op_interval_s + drain_s)
        for layer in layers:
            layer.stop()
        kernel_events += sim.events_processed
        messages += accounting.total_messages
        net_bytes += accounting.total_bytes
        results.append(DhtCellResult(system, get_stats, put_stats))
    with spans.span("analysis.summarise_s"):
        rows = [row for res in results for row in res.rows()]
    ops_ok = sum(row.operations for row in rows)
    failures = sum(row.failures for row in rows)
    _guard(workload, ops_ok > 0, "zero DHT operations succeeded")
    _check_finite(workload, rows)
    op_bytes = sum(
        sum(res.get_stats.bytes_used) + sum(res.put_stats.bytes_used) for res in results
    )
    cell = Cell(
        rows=rows,
        events=kernel_events,
        kernel_events=kernel_events,
        ops=ops_ok + failures,
        ops_failed=failures,
        counts={
            "net.messages": messages,
            "net.bytes": net_bytes,
            "dht.ops_ok": ops_ok,
            "dht.mean_bytes_per_op": op_bytes / ops_ok,
        },
    )
    expected = len(DHT_SYSTEMS) * (config.num_puts + config.num_gets)
    if failures or ops_ok != expected:
        cell.problems.append(f"{ops_ok} of {expected} DHT operations succeeded")
    return cell


# -- worm propagation on the columnar worm engine (fig8) --------------------


def _worm_run(
    spans: Spans, workload: str, scenario: str, config: WormScenarioConfig, until: float
) -> Tuple[WormRunResult, int]:
    """One Fig. 8 scenario, in ``run_scenario``'s call and RNG order;
    returns the result and the raw kernel event count."""
    _guard(workload, config.num_nodes > 0, "empty population")
    rng = random.Random(config.seed)
    sim = Simulator()
    with_imp = scenario not in ("chord", "verme")
    with spans.span("overlay.population_build_s"):
        if scenario == "chord":
            pop = build_chord_population(config, rng)
        else:
            pop = build_verme_population(config, rng, with_impersonator=with_imp)
    _guard(workload, pop.vulnerable_count > 0, f"{scenario}: no vulnerable node")
    with spans.span("worm.knowledge_build_s"):
        if scenario == "chord":
            knowledge = chord_knowledge(pop.overlay, config.num_successors)
        else:
            knowledge = verme_knowledge(
                pop.overlay, config.num_successors, config.num_predecessors
            )
            if with_imp:
                knowledge = ImpersonatorKnowledge(
                    knowledge, pop.overlay, pop.impersonator_index, config.victim_type
                )
        worm = ColumnarWormSimulation(
            sim, len(pop.overlay), pop.vulnerable, knowledge, config.params
        )
        if with_imp:
            worm.seed(pop.impersonator_index)
        else:
            worm.seed(rng.choice([i for i, v in enumerate(pop.vulnerable) if v]))
        harvester = None
        if scenario == "verme-fast":
            harvester = FastVerDiHarvester(
                sim,
                worm,
                pop.overlay,
                pop.impersonator_index,
                config.victim_type,
                rng,
                rate_per_s=config.fast_lookups_per_s,
                replicas_per_lookup=config.replicas_per_lookup,
                vulnerable_total=pop.vulnerable_count,
            )
        elif scenario == "verme-compromise":
            claimed = len(pop.overlay) - pop.vulnerable_count
            victims = [i for i, v in enumerate(pop.vulnerable) if v]
            pool_size = max(4, len(pop.overlay).bit_length())
            harvester = CompromiseVerDiHarvester(
                sim,
                worm,
                pop.overlay,
                pop.impersonator_index,
                config.victim_type,
                rng,
                rate_per_s=CompromiseVerDiHarvester.expected_rate(
                    config.node_lookup_rate_per_s, pop.vulnerable_count, claimed
                ),
                replicas_per_lookup=config.replicas_per_lookup,
                vulnerable_total=pop.vulnerable_count,
                initiator_pool=rng.sample(victims, min(pool_size, len(victims))),
            )
        if harvester is not None:
            harvester.start()
    with spans.span(f"sim.run_wall_s.{scenario}"):
        worm.run(until=until)
    if harvester is not None:
        harvester.stop()
    result = WormRunResult(
        scenario=scenario,
        curve=worm.curve,
        population_size=len(pop.overlay),
        vulnerable_count=pop.vulnerable_count,
        config=config,
        scans_performed=worm.scans_performed,
        events=sim.events_processed + worm.logical_events,
    )
    return result, sim.events_processed


def worm_cell(
    spans: Spans,
    workload: str,
    config: WormScenarioConfig,
    until: float,
    scenarios=WORM_SCENARIOS,
) -> Cell:
    """The Fig. 8 scenarios in sequence on fresh populations."""
    runs = [_worm_run(spans, workload, s, config, until) for s in scenarios]
    results = [result for result, _ in runs]
    with spans.span("analysis.summarise_s"):
        rows = [summarise_fig8_runs(r.scenario, [r]) for r in results]
    scans = sum(r.scans_performed for r in results)
    infected = sum(r.final_infected for r in results)
    _guard(workload, scans > 0, "zero worm scans")
    _check_finite(workload, rows)
    return Cell(
        rows=rows,
        events=sum(r.events for r in results),
        kernel_events=sum(kernel for _, kernel in runs),
        ops=scans,
        ops_failed=0,
        counts={
            "worm.scans": scans,
            "worm.infected": infected,
            "worm.useful_scan_ratio": infected / scans,
        },
    )


def check_worm(cell: Cell) -> None:
    """Paper Fig. 8: Chord saturates, Verme contains, and the VerDi
    impersonation attacks fall in between, in order."""
    by = {row.scenario: row for row in cell.rows}
    chord, verme = by["chord"], by["verme"]
    if chord.final_infected < 0.99 * chord.vulnerable:
        cell.problems.append(
            f"chord infected {chord.final_infected} of {chord.vulnerable} (< 99%)"
        )
    if verme.final_infected >= 0.005 * verme.vulnerable:
        cell.problems.append(
            f"verme infected {verme.final_infected} of {verme.vulnerable} (>= 0.5%)"
        )
    order = ["verme", "verme-compromise", "verme-fast", "chord"]
    finals = [by[s].final_infected for s in order]
    if sorted(set(finals)) != finals:
        cell.problems.append(f"final infected not ordered {order}: {finals}")


# -- the workload table -----------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named workload (the "why" of each is in ``BENCHMARK.json``)."""

    name: str
    #: (seed, smoke) -> the arguments of ``cell`` after (spans, name)
    args: Callable[[int, bool], tuple]
    cell: Callable[..., Cell]
    #: paper-shape check; statistical, so only applied at full scale
    check: Optional[Callable[[Cell], None]] = None

    def run(self, spans: Spans, seed: int, smoke: bool = False) -> Cell:
        """One repeat: build, run, summarise, check."""
        cell = self.cell(spans, self.name, *self.args(seed, smoke))
        if self.check is not None and not smoke:
            self.check(cell)
        return cell


def _fig5_args(seed: int, smoke: bool) -> tuple:
    config = Fig5Config(
        num_nodes=1000, num_sections=16, duration_s=90.0, warmup_s=30.0,
        latency_model="king-coords", engine="columnar", seed=seed,
    )
    if smoke:
        config = replace(config, num_nodes=100, num_sections=8)
    return (config,)


def _ring_scale_args(seed: int, smoke: bool) -> tuple:
    config = Fig5Config(
        num_nodes=10_000, num_sections=128, duration_s=10.0, warmup_s=2.0,
        latency_model="king-coords", engine="columnar", seed=seed,
    )
    if smoke:
        config = replace(config, num_nodes=1000, num_sections=16)
    return (config, ("verme",))


def _serving_args(seed: int, smoke: bool) -> tuple:
    config = OverloadConfig(
        num_nodes=200, duration_s=300.0, warmup_s=30.0,
        latency_model="king-coords", engine="columnar", seed=seed,
    )
    if smoke:
        config = replace(config, num_nodes=40, duration_s=120.0)
    return (config,)


def _dht_args(seed: int, smoke: bool) -> tuple:
    config = DhtExperimentConfig(
        num_nodes=400, num_sections=32, num_puts=200, num_gets=200,
        op_interval_s=0.05, seed=seed,
    )
    if smoke:
        config = replace(config, num_nodes=60, num_sections=8, num_puts=15, num_gets=15)
    # The driver's 60 s drain is ~50 s of pure ring maintenance after the
    # last reply; 8 s still sees every operation complete (checked) and
    # keeps the cell about its puts and gets.
    return (config, 8.0)


def _worm_args(seed: int, smoke: bool) -> tuple:
    config = WormScenarioConfig(num_nodes=100_000, num_sections=4096, seed=seed)
    if smoke:
        return (replace(config, num_nodes=5000, num_sections=256), 30.0)
    return (config, 60.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5_churn_1k", _fig5_args, fig5_cell, check_fig5),
        Workload("ring_scale_10k", _ring_scale_args, fig5_cell, check_fig5),
        Workload("serving_spike", _serving_args, serving_cell, check_serving),
        Workload("dht_putget", _dht_args, dht_cell),
        Workload("worm_fig8_100k", _worm_args, worm_cell, check_worm),
    )
}
