"""The five Fig. 8 worm scenarios, packaged for reuse.

``run_scenario`` reproduces one curve of the paper's Figure 8:

* ``chord`` — a p2p worm following routing state on plain Chord;
* ``verme`` — the same worm on Verme, no impersonation;
* ``verme-secure`` — Secure-VerDi with an impersonating seed;
* ``verme-fast`` — Fast-VerDi, impersonator issuing 10 lookups/s;
* ``verme-compromise`` — Compromise-VerDi, impersonator harvesting from
  relayed operations (every node issues 1 lookup/s).

The paper's configuration: 100,000 nodes, 50% vulnerable (one whole
type), 4096 sections (~24 nodes each).  Defaults here are scaled down
so tests run quickly; the fidelity ledger passes the full values.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..ids.assignment import NodeType
from ..ids.draws import random_array, unique_ids
from ..ids.idspace import IdSpace
from ..ids.sections import VermeIdLayout
from ..obs import OBS, maybe_phase
from ..overlay.snapshot import StaticOverlay, VermeStaticOverlay
from ..sim import Simulator
from .columnar import ColumnarWormSimulation
from .harvest import (
    CompromiseVerDiHarvester,
    FastVerDiHarvester,
    ImpersonatorKnowledge,
)
from .knowledge import chord_knowledge, verme_knowledge
from .model import STATE_TO_ENUM, InfectionCurve, WormParams, WormState
from .simulation import WormSimulation

#: Engine selection for ``WormScenarioConfig.engine``.  ``columnar`` is
#: the default batch-ticked engine; ``legacy`` keeps the per-event
#: reference implementation (bit-for-bit identical curves).
ENGINES = {
    "columnar": ColumnarWormSimulation,
    "legacy": WormSimulation,
}

SCENARIOS = (
    "chord",
    "verme",
    "verme-secure",
    "verme-fast",
    "verme-compromise",
)

#: The scenarios whose infection seed is the impersonator: the
#: attacker's own machine, on the infection curve but not vulnerable.
IMPERSONATED = ("verme-secure", "verme-fast", "verme-compromise")


@dataclass(frozen=True)
class WormScenarioConfig:
    """Parameters of one Fig. 8 run (paper values in comments)."""

    num_nodes: int = 2000                  # paper: 100,000
    num_sections: int = 128                # paper: 4096
    id_bits: int = 64                      # paper: 160 (irrelevant to shape)
    victim_type: NodeType = NodeType.A
    num_successors: int = 10
    num_predecessors: int = 10
    params: WormParams = field(default_factory=WormParams)
    fast_lookups_per_s: float = 10.0       # paper §7.3
    node_lookup_rate_per_s: float = 1.0    # paper §7.3 (Compromise)
    # How many of the returned replica addresses the worm actually seeds
    # per lookup.  A lookup returns the whole n/2 replica group, but the
    # group shares a section, so seeding one node and letting the
    # intra-section spread do the rest is what an efficient worm does —
    # and is the rate the paper's curves imply (~1 impersonator-driven
    # infection per lookup).  Set to n/2 to model a naive worm that
    # pushes every returned address through the impersonator.
    replicas_per_lookup: int = 1
    # Fraction of victim-type machines that are patched/immune (Zhou et
    # al.'s observation that immune nodes slow propagation; 0.0 in the
    # paper's Fig. 8 setup, where the whole type is vulnerable).
    immune_fraction: float = 0.0
    seed: int = 0
    # Propagation engine: "columnar" (batch-ticked, array-backed) or
    # "legacy" (one kernel event per scan).  Both produce identical
    # curves; legacy remains as the readable reference implementation
    # and for debugging single events step by step.
    engine: str = "columnar"

    def __post_init__(self) -> None:
        if not 0.0 <= self.immune_fraction < 1.0:
            raise ValueError("immune_fraction must be in [0, 1)")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; pick from {sorted(ENGINES)}"
            )

    def with_paper_scale(self) -> "WormScenarioConfig":
        """The full 100k-node configuration from §7.3."""
        return replace(self, num_nodes=100_000, num_sections=4096)


@dataclass
class WormPopulation:
    """A generated static population ready for a worm run."""

    overlay: StaticOverlay
    vulnerable: List[bool]
    node_types: List[int]
    impersonator_index: Optional[int] = None

    @property
    def vulnerable_count(self) -> int:
        return sum(self.vulnerable)


@dataclass
class WormRunResult:
    """One scenario run: the curve plus context for reporting."""

    scenario: str
    curve: InfectionCurve
    population_size: int
    vulnerable_count: int
    config: WormScenarioConfig
    scans_performed: int = 0
    # Kernel events plus (for the columnar engine) logical worm events
    # drained inside batch ticks — comparable across engines.
    events: int = 0

    @property
    def _attackers(self) -> int:
        """Curve entries that are no victim (the impersonator seed)."""
        return 1 if self.scenario in IMPERSONATED else 0

    def time_to_fraction(self, fraction: float) -> Optional[float]:
        """When ``fraction`` of the vulnerable nodes were infected."""
        target = max(1, int(self.vulnerable_count * fraction))
        return self.curve.time_to_count(target + self._attackers)

    @property
    def final_infected(self) -> int:
        """Vulnerable nodes infected by the end of the run."""
        return self.curve.final_count - self._attackers


def build_verme_population(
    config: WormScenarioConfig,
    rng: random.Random,
    with_impersonator: bool = False,
) -> WormPopulation:
    """Half type-A / half type-B nodes on a Verme ring; the whole victim
    type is vulnerable.  The optional impersonator joins with an id of
    the opposite (claimed) type and is itself the infection seed."""
    space = IdSpace(config.id_bits)
    layout = VermeIdLayout.for_sections(space, config.num_sections)
    half = config.num_nodes // 2
    # A ids, then B ids, then the impersonator's: one batch of draws.
    types = np.repeat(
        [int(NodeType.A), int(NodeType.B), int(config.victim_type.opposite)],
        [half, config.num_nodes - half, int(with_impersonator)],
    )
    ids = unique_ids(rng, layout, types)
    imp_id = int(ids[-1]) if with_impersonator else None
    # from_ids skips NodeInfo materialisation (lazy on the overlay).
    overlay = VermeStaticOverlay.from_ids(layout, ids)
    del ids
    # Per-index attributes in overlay (sorted) order.
    if space.bits <= 64:
        node_types = layout.types_of(overlay._ids_numpy())
    else:
        node_types = np.array([layout.type_of(nid) for nid in overlay.ids])
    vulnerable = _vulnerable_mask(config, rng, node_types)
    imp_index: Optional[int] = None
    if imp_id is not None:
        imp_index = overlay.index_of(imp_id)
        vulnerable[imp_index] = False  # the attacker's own machine
    return WormPopulation(overlay, vulnerable, node_types.tolist(), imp_index)


def build_chord_population(
    config: WormScenarioConfig, rng: random.Random
) -> WormPopulation:
    """Random Chord ids; platform types assigned independently of the
    ids (Chord knows nothing of types), half of the machines vulnerable."""
    space = IdSpace(config.id_bits)
    overlay = StaticOverlay.from_ids(space, unique_ids(rng, space, config.num_nodes))
    victim = int(config.victim_type)
    # One coin per node, in overlay order: the victim type below 0.5.
    node_types = np.where(
        random_array(rng, len(overlay)) < 0.5, victim, int(config.victim_type.opposite)
    )
    vulnerable = _vulnerable_mask(config, rng, node_types)
    return WormPopulation(overlay, vulnerable, node_types.tolist())


def _vulnerable_mask(
    config: WormScenarioConfig, rng: random.Random, node_types: np.ndarray
) -> List[bool]:
    """Victim-type nodes, less the immune ones: one ``random()`` per
    victim-type node in overlay order, drawn only when
    ``immune_fraction`` is set."""
    vulnerable = node_types == int(config.victim_type)
    if config.immune_fraction > 0.0:
        draws = random_array(rng, int(vulnerable.sum()))
        vulnerable[vulnerable] = draws >= config.immune_fraction
    return vulnerable.tolist()


def run_scenario(
    scenario: str,
    config: WormScenarioConfig,
    until: Optional[float] = None,
    sim: Optional[Simulator] = None,
) -> WormRunResult:
    """Run one Fig. 8 scenario to completion (or ``until`` seconds)."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")
    rng = random.Random(config.seed)
    sim = sim if sim is not None else Simulator()

    engine_cls = ENGINES[config.engine]
    if scenario == "chord":
        pop = build_chord_population(config, rng)
        knowledge = chord_knowledge(pop.overlay, config.num_successors)
        worm = engine_cls(
            sim, len(pop.overlay), pop.vulnerable, knowledge, config.params
        )
        seed_index = rng.choice(
            [i for i, v in enumerate(pop.vulnerable) if v]
        )
        worm.seed(seed_index)
        with maybe_phase("worm.run", sim):
            worm.run(until=until)
        return _result(scenario, worm, pop, config)

    with_imp = scenario in IMPERSONATED
    pop = build_verme_population(config, rng, with_impersonator=with_imp)
    assert isinstance(pop.overlay, VermeStaticOverlay)
    base_knowledge = verme_knowledge(
        pop.overlay, config.num_successors, config.num_predecessors
    )
    if with_imp:
        assert pop.impersonator_index is not None
        knowledge = ImpersonatorKnowledge(
            base_knowledge, pop.overlay, pop.impersonator_index, config.victim_type
        )
    else:
        knowledge = base_knowledge
    worm = engine_cls(
        sim, len(pop.overlay), pop.vulnerable, knowledge, config.params
    )
    if with_imp:
        worm.seed(pop.impersonator_index)
    else:
        seed_index = rng.choice([i for i, v in enumerate(pop.vulnerable) if v])
        worm.seed(seed_index)

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
        claimed_count = len(pop.overlay) - pop.vulnerable_count
        rate = CompromiseVerDiHarvester.expected_rate(
            config.node_lookup_rate_per_s, pop.vulnerable_count, claimed_count
        )
        # The initiators relaying through the impersonator are the ~log2 N
        # victim-type nodes that hold it in their finger tables; sample a
        # pool of that size rather than computing reverse fingers exactly.
        pool_size = max(4, len(pop.overlay).bit_length())
        victim_indices = [i for i, v in enumerate(pop.vulnerable) if v]
        initiator_pool = rng.sample(
            victim_indices, min(pool_size, len(victim_indices))
        )
        harvester = CompromiseVerDiHarvester(
            sim,
            worm,
            pop.overlay,
            pop.impersonator_index,
            config.victim_type,
            rng,
            rate_per_s=rate,
            replicas_per_lookup=config.replicas_per_lookup,
            vulnerable_total=pop.vulnerable_count,
            initiator_pool=initiator_pool,
        )
    if harvester is not None:
        harvester.start()
    with maybe_phase("worm.run", sim):
        worm.run(until=until)
    if harvester is not None:
        harvester.stop()
    return _result(scenario, worm, pop, config, harvester)


def _result(
    scenario: str,
    worm,
    pop: WormPopulation,
    config: WormScenarioConfig,
    harvester=None,
) -> WormRunResult:
    result = WormRunResult(
        scenario=scenario,
        curve=worm.curve,
        population_size=len(pop.overlay),
        vulnerable_count=pop.vulnerable_count,
        config=config,
        scans_performed=worm.scans_performed,
        events=worm.sim.events_processed + getattr(worm, "logical_events", 0),
    )
    metrics = OBS.metrics
    if metrics is not None:
        _publish_run_metrics(metrics, worm, result, harvester)
    return result


def _final_state_counts(worm) -> Dict[str, int]:
    """Final per-state node counts of a finished run (every node is in
    exactly one state, so the values sum to the population)."""
    if isinstance(worm, ColumnarWormSimulation):
        # The byte column counts through Counter's C loop; materialising
        # the enum list would allocate one object per node.
        raw = Counter(worm._state)
        by_name = {STATE_TO_ENUM[code].name: n for code, n in raw.items()}
    else:
        by_name = {state.name: n for state, n in Counter(worm.state).items()}
    return {state.name: by_name.get(state.name, 0) for state in WormState}


def _publish_run_metrics(metrics, worm, result: WormRunResult, harvester) -> None:
    """Publish one run's worm metrics to the registry, after the run
    (zero cost on the engines' hot paths).  Names are prefixed with the
    scenario and seed so per-cell runs merge without colliding."""
    prefix = f"worm.{result.scenario}.s{result.config.seed}"
    for name, count in _final_state_counts(worm).items():
        metrics.counter(f"{prefix}.states.{name}").inc(count)
    metrics.counter(f"{prefix}.population").inc(result.population_size)
    metrics.counter(f"{prefix}.vulnerable").inc(result.vulnerable_count)
    metrics.counter(f"{prefix}.scans").inc(worm.scans_performed)
    # State-machine transition counts: every infection is one
    # NOT_INFECTED -> INACTIVE edge; seeds are the externally implanted
    # subset of them.
    metrics.counter(f"{prefix}.transitions.infected").inc(worm.infected_count)
    metrics.counter(f"{prefix}.transitions.completed").inc(
        worm.infections_completed
    )
    metrics.counter(f"{prefix}.transitions.seeded").inc(
        worm.infected_count - worm.infections_completed
    )
    if harvester is not None:
        metrics.counter(f"{prefix}.harvest.events").inc(harvester.harvest_events)
        metrics.counter(f"{prefix}.harvest.addresses").inc(
            harvester.addresses_harvested
        )

