"""Figure 8: simulated worm propagation speeds.

Paper setup (§7.3): a 100,000-node static overlay, 50% of machines
vulnerable (one whole type), Verme configured with 4096 sections (~24
nodes each), scan rate 100/s, 100 ms infection time, 1 s activation
delay; the Fast-VerDi impersonator issues 10 lookups/s and in the
Compromise-VerDi scenario every node issues 1 lookup/s.  Each strategy
averaged over 10 runs.

Expected curves: Chord infects the whole system in ~32 s; Verme without
impersonation stays confined to a single section; Secure-VerDi with an
impersonator reaches only a logarithmic number of sections (~352
nodes); Fast-VerDi and Compromise-VerDi take ~160 s and ~1600 s to
infect half the vulnerable population.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.curves import average_curves, log_time_grid
from ..worm.model import InfectionCurve
from ..worm.scenarios import WormRunResult, WormScenarioConfig, run_scenario
from .records import Fig8Row

#: Time horizons per scenario: generous multiples of the expected
#: completion times so curves saturate without wasting events.
DEFAULT_HORIZONS: Dict[str, float] = {
    "chord": 300.0,
    "verme": 300.0,
    "verme-secure": 300.0,
    "verme-fast": 4000.0,
    "verme-compromise": 40000.0,
}


@dataclass(frozen=True)
class Fig8Config:
    """Scaled-down defaults; ``paper_scale()`` restores §7.3."""

    scenario_config: WormScenarioConfig = field(default_factory=WormScenarioConfig)
    runs: int = 2                          # paper: 10
    horizons: Optional[Dict[str, float]] = None

    def paper_scale(self) -> "Fig8Config":
        return replace(
            self,
            scenario_config=self.scenario_config.with_paper_scale(),
            runs=10,
        )


def run_fig8_cell(config: Fig8Config, scenario: str, run_index: int) -> WormRunResult:
    """One independent (scenario, run) cell of Fig. 8.

    The cell's result depends only on its arguments — seed derivation
    included — which is what lets :mod:`repro.experiments.parallel` fan
    cells across processes with bit-identical output.
    """
    horizons = config.horizons or DEFAULT_HORIZONS
    scen_cfg = replace(
        config.scenario_config,
        seed=config.scenario_config.seed + 1000 * run_index + 1,
    )
    return run_scenario(scenario, scen_cfg, until=horizons.get(scenario))


def summarise_fig8_runs(scenario: str, results: List[WormRunResult]) -> Fig8Row:
    """Aggregate all runs of one scenario into its table row."""
    return Fig8Row(
        scenario=scenario,
        population=results[0].population_size,
        vulnerable=results[0].vulnerable_count,
        final_infected=round(sum(r.final_infected for r in results) / len(results)),
        time_to_10pct_s=_mean_or_none([r.time_to_fraction(0.10) for r in results]),
        time_to_50pct_s=_mean_or_none([r.time_to_fraction(0.50) for r in results]),
        time_to_95pct_s=_mean_or_none([r.time_to_fraction(0.95) for r in results]),
    )


def curve_series(
    curves_by_scenario: Dict[str, List[InfectionCurve]],
    horizons: Optional[Dict[str, float]] = None,
    grid_points: int = 50,
) -> Dict[str, List[Tuple[float, float]]]:
    """The Fig. 8 plot data: averaged infected-count series on a
    logarithmic time grid, one series per scenario, resampled from
    already-computed curves (see ``parallel.fig8_curves``)."""
    horizons = horizons or DEFAULT_HORIZONS
    t_max = max(horizons.get(s, 300.0) for s in curves_by_scenario)
    grid = log_time_grid(0.1, t_max, grid_points)
    return {
        scenario: average_curves(curves, grid)
        for scenario, curves in curves_by_scenario.items()
    }


def _mean_or_none(values: List[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)
