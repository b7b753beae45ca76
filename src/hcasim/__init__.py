"""Microscopic traffic simulation with multilevel cell-automaton signal control.

The package models a road network on three coupled levels: individual
vehicles on lane cells, per-lane occupancy/backlog aggregates, and per
intersection an adaptive signal that balances local queue pressure against
green-wave coordination with its upstream neighbors.
"""

__version__ = "0.1.0"

from .engine import MetricsRecord, Simulation, count_stopped, run, trace_columns
from .experiments import (
    ComparisonRow,
    SweepError,
    SweepResult,
    aggregate,
    compare_strategies,
    read_compare_csv,
    read_sweep_csv,
    run_many,
    summarize_comparison,
    sweep_alpha,
    welch_one_sided,
    write_compare_csv,
    write_metrics_csv,
    write_sweep_csv,
)
from .lanes import apply_signal_indications, compute_backlog, compute_occupancy
from .model import (
    ConfigError,
    IntersectionDescriptor,
    IntersectionState,
    LaneDescriptor,
    Level1State,
    NetworkTopology,
    SimConfig,
    SimulationError,
    Vehicle,
    check_level1,
    config_digest,
    topology_digest,
    validate_topology,
)
from .scenarios import (
    arterial_config,
    build_arterial,
    build_grid,
    derive_compatibility,
    grid_config,
    load_config,
)
from .signals import (
    AdaptiveSelector,
    FixedTimeSelector,
    controller_strategy,
    coordination_priority,
    phase_pressure,
    select_phase,
)
from .vehicles import (
    InjectionProcess,
    RngStream,
    accelerate,
    advance_all,
    brake,
    pick_exit,
    randomize,
)

__all__ = [
    "AdaptiveSelector",
    "ComparisonRow",
    "ConfigError",
    "FixedTimeSelector",
    "InjectionProcess",
    "IntersectionDescriptor",
    "IntersectionState",
    "LaneDescriptor",
    "Level1State",
    "MetricsRecord",
    "NetworkTopology",
    "RngStream",
    "SimConfig",
    "Simulation",
    "SimulationError",
    "SweepError",
    "SweepResult",
    "Vehicle",
    "__version__",
    "accelerate",
    "advance_all",
    "aggregate",
    "apply_signal_indications",
    "arterial_config",
    "brake",
    "build_arterial",
    "build_grid",
    "check_level1",
    "compare_strategies",
    "compute_backlog",
    "compute_occupancy",
    "config_digest",
    "controller_strategy",
    "coordination_priority",
    "count_stopped",
    "derive_compatibility",
    "grid_config",
    "load_config",
    "phase_pressure",
    "pick_exit",
    "randomize",
    "read_compare_csv",
    "read_sweep_csv",
    "run",
    "run_many",
    "select_phase",
    "summarize_comparison",
    "sweep_alpha",
    "topology_digest",
    "trace_columns",
    "validate_topology",
    "welch_one_sided",
    "write_compare_csv",
    "write_metrics_csv",
    "write_sweep_csv",
]
