"""Microscopic traffic simulation with multilevel cell-automaton signal control.

The package models a road network on three coupled levels: individual
vehicles on lane cells, per-lane occupancy/backlog aggregates, and per
intersection an adaptive signal that balances local queue pressure against
green-wave coordination with its upstream neighbors.

This module exports the library the README documents; every other name is
imported from the module that defines it (``hcasim.signals``, ...).
"""

__version__ = "0.1.0"

from .engine import MetricsRecord, Simulation, run
from .experiments import (
    ComparisonRow,
    SweepError,
    SweepResult,
    aggregate,
    compare_strategies,
    run_many,
    summarize_comparison,
    sweep_alpha,
    welch_one_sided,
)
from .model import (
    ConfigError,
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    SimConfig,
    SimulationError,
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

__all__ = [
    "ComparisonRow",
    "ConfigError",
    "IntersectionDescriptor",
    "LaneDescriptor",
    "MetricsRecord",
    "NetworkTopology",
    "SimConfig",
    "Simulation",
    "SimulationError",
    "SweepError",
    "SweepResult",
    "__version__",
    "aggregate",
    "arterial_config",
    "build_arterial",
    "build_grid",
    "compare_strategies",
    "config_digest",
    "derive_compatibility",
    "grid_config",
    "load_config",
    "run",
    "run_many",
    "summarize_comparison",
    "sweep_alpha",
    "topology_digest",
    "validate_topology",
    "welch_one_sided",
]
