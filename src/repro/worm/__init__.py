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
    SCENARIOS,
    WormPopulation,
    WormRunResult,
    WormScenarioConfig,
    build_chord_population,
    build_verme_population,
    run_scenario,
)

__all__ = [
    "ColumnarWormSimulation",
    "CompromiseVerDiHarvester",
    "FastVerDiHarvester",
    "ImpersonatorKnowledge",
    "InfectionCurve",
    "RoutingKnowledge",
    "SCENARIOS",
    "WormParams",
    "WormPopulation",
    "WormRunResult",
    "WormScenarioConfig",
    "WormState",
    "build_chord_population",
    "build_verme_population",
    "chord_knowledge",
    "run_scenario",
    "verme_knowledge",
]
