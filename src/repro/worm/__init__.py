"""Worm propagation: model, knowledge, harvesters, scenarios (Fig. 8)."""

from .columnar import ColumnarWormSimulation
from .harvest import (
    CompromiseVerDiHarvester,
    FastVerDiHarvester,
    ImpersonatorKnowledge,
)
from .knowledge import RoutingKnowledge, chord_knowledge, verme_knowledge
from .model import InfectionCurve, WormParams, WormState
from .scenarios import (
    ENGINES,
    SCENARIOS,
    WormPopulation,
    WormRunResult,
    WormScenarioConfig,
    build_chord_population,
    build_verme_population,
    run_scenario,
)
from .simulation import WormSimulation

__all__ = [
    "ColumnarWormSimulation",
    "CompromiseVerDiHarvester",
    "ENGINES",
    "FastVerDiHarvester",
    "ImpersonatorKnowledge",
    "InfectionCurve",
    "RoutingKnowledge",
    "SCENARIOS",
    "WormParams",
    "WormPopulation",
    "WormRunResult",
    "WormScenarioConfig",
    "WormSimulation",
    "WormState",
    "build_chord_population",
    "build_verme_population",
    "chord_knowledge",
    "run_scenario",
    "verme_knowledge",
]
