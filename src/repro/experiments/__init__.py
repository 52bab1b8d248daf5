"""Experiment drivers, one per paper figure (see DESIGN.md §3)."""

from .ablations import (
    run_fragment_placement,
    run_load_comparison,
    run_multitype_containment,
    run_naive_finger_ablation,
    run_replication_availability,
    run_tracker_ablation,
)
from .builders import BuiltRing, ChordNodeFactory, VermeNodeFactory, build_ring
from .dht_ops import (
    DHT_SYSTEMS,
    DhtCellResult,
    DhtExperimentConfig,
    run_dht_cell,
    run_dht_experiment,
)
from .fig5_lookup_latency import SYSTEMS as FIG5_SYSTEMS
from .fig5_lookup_latency import (
    Fig5Config,
    average_fig5_rows,
    run_cell,
    run_fig5,
)
from .fig8_worm_propagation import (
    DEFAULT_HORIZONS,
    Fig8Config,
    averaged_curve_series,
    curve_series,
    run_fig8,
    run_fig8_cell,
    run_fig8_scenario,
    summarise_fig8_runs,
)
from .parallel import (
    map_cells,
    run_ablations_parallel,
    run_fig5_parallel,
    run_fig8_cells,
)
from .records import DhtOpRow, Fig5Row, Fig8Row, ResilienceRow
from .resilience import SYSTEMS as RESILIENCE_SYSTEMS
from .resilience import (
    ResilienceConfig,
    run_resilience,
    run_resilience_cell,
)

__all__ = [
    "BuiltRing",
    "ChordNodeFactory",
    "DEFAULT_HORIZONS",
    "DHT_SYSTEMS",
    "DhtCellResult",
    "DhtExperimentConfig",
    "DhtOpRow",
    "FIG5_SYSTEMS",
    "Fig5Config",
    "Fig5Row",
    "Fig8Config",
    "Fig8Row",
    "RESILIENCE_SYSTEMS",
    "ResilienceConfig",
    "ResilienceRow",
    "VermeNodeFactory",
    "average_fig5_rows",
    "averaged_curve_series",
    "build_ring",
    "curve_series",
    "map_cells",
    "run_ablations_parallel",
    "run_cell",
    "run_dht_cell",
    "run_dht_experiment",
    "run_fig5",
    "run_fig5_parallel",
    "run_fig8",
    "run_fig8_cell",
    "run_fig8_cells",
    "run_fig8_scenario",
    "run_fragment_placement",
    "run_load_comparison",
    "run_multitype_containment",
    "run_naive_finger_ablation",
    "run_replication_availability",
    "run_resilience",
    "run_resilience_cell",
    "run_tracker_ablation",
    "summarise_fig8_runs",
]
