"""Run loop tying the three model levels together.

Step order, fixed by contract:

1. arrivals are drawn and placed, then every vehicle moves synchronously
   under the signal indications chosen at the end of the previous step;
2. lane occupancy and differential backlog are recomputed;
3. every intersection selects its next phase from the fresh backlogs and the
   previous step's neighbor states;
4. the chosen phases fix the per-lane signal indications of the next move;
   :attr:`Simulation.gamma` looks them up in a table, nothing stores them.

Stop delay then accumulates: one unit per vehicle standing still at the end
of the step, not counting vehicles placed this step.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO

import numpy as np

from .lanes import apply_signal_indications, compute_backlog, compute_occupancy
from .model import (
    ConfigError,
    Level1Arrays,
    Level1State,
    Level3State,
    NetworkTopology,
    SimConfig,
    SimulationError,
    check_level1,
    config_digest,
    validate_topology,
)
from .signals import controller_strategy
from .vehicles import InjectionProcess, RngStream, advance_all, count_stopped


def trace_columns(topology: NetworkTopology) -> tuple[str, ...]:
    """Header of the per-step trace: step, each intersection's active phase,
    each lane's occupancy / backlog / signal indication, stopped count."""
    cols = ["step"]
    cols += [f"pi_{i}" for i in range(topology.n_intersections)]
    cols += [f"o_{l}" for l in range(topology.n_lanes)]
    cols += [f"delta_{l}" for l in range(topology.n_lanes)]
    cols += [f"gamma_{l}" for l in range(topology.n_lanes)]
    cols.append("stopped")
    return tuple(cols)


@dataclass(frozen=True)
class MetricsRecord:
    """End-of-run summary of one simulation."""

    total_stop_delay: int
    vehicles_injected: int
    vehicles_removed: int
    vehicles_in_network: int
    horizon: int
    seed: int
    config_digest: str


# Level 1 runs as whole-network arrays from this many lanes on, as per-lane
# lists below.  An array step pays a fixed cost of some sixty numpy calls,
# which the per-vehicle loop matches at about 200 vehicles: at q 0.1 the 6x6
# grid (84 lanes, ~200 vehicles) runs at parity, the 4x4 grid (40 lanes,
# ~110) at 0.8x and the 10x10 grid (220 lanes, ~520) at 1.6x.
ARRAY_MIN_LANES = 80


class Simulation:
    """Owns the mutable state of one run and advances it step by step."""

    def __init__(self, config: SimConfig, check_invariants: bool = False):
        report = validate_topology(config.topology)
        if report:
            raise ConfigError("invalid topology: " + "; ".join(report))
        if config.strategy == "fixed_time":
            split = config.fixed_time_split or ()
            for ii, node in enumerate(config.topology.intersections):
                if all(split[j % len(split)] == 0 for j in range(len(node.phases))):
                    raise ConfigError(
                        f"intersection {ii}: fixed_time_split leaves every phase at zero"
                    )
        self.config = config
        self.topology = config.topology
        self.check_invariants = check_invariants
        arrays = config.topology.n_lanes >= ARRAY_MIN_LANES
        self.state = (Level1Arrays if arrays else Level1State).empty(config.topology)
        self.rng = RngStream(config.seed)
        self.injector = InjectionProcess(config.topology, config.resolved_intensities())
        self.selector = controller_strategy(config)
        n_nodes = config.topology.n_intersections
        self.node_states = Level3State(
            np.zeros(n_nodes, dtype=np.intp), np.zeros(n_nodes, dtype=np.intp)
        )
        # The network starts empty, so every occupancy and backlog is 0; the
        # first step compiles the topology's tables.
        self.occupancy = np.zeros(config.topology.n_lanes, dtype=np.intp)
        self.backlog = np.zeros(config.topology.n_lanes)
        self.t = 0
        self.total_stop_delay = 0
        self.removed_total = 0
        self.last_stopped = 0

    @property
    def gamma(self) -> np.ndarray:
        """Signal bit per lane (1 green, 0 red) under the current phases."""
        return apply_signal_indications(self.node_states.pi, self.topology)

    def step(self) -> None:
        cfg = self.config
        first_new_id = self.injector.next_id
        self.injector.inject(self.state, self.rng)
        self.removed_total += advance_all(
            self.state, self.topology, self.gamma, cfg.v_max, cfg.p, self.rng
        )

        self.occupancy = compute_occupancy(self.state)
        self.backlog = compute_backlog(self.occupancy, self.topology)
        self.node_states = self.selector.select(self.topology, self.backlog, self.node_states)

        self.last_stopped = count_stopped(self.state, cfg.stop_window, first_new_id)
        self.total_stop_delay += self.last_stopped
        self.t += 1
        if self.check_invariants:
            self._verify()

    def _verify(self) -> None:
        report = check_level1(self.state, self.topology, self.config.v_max)
        injected = self.injector.total_injected
        on_road = self.state.vehicle_count
        if injected != self.removed_total + on_road:
            report.append(
                f"conservation: injected {injected} != removed {self.removed_total} "
                f"+ on-road {on_road}"
            )
        for ii, st in enumerate(self.node_states):
            if not 0 <= st.pi < len(self.topology.intersections[ii].phases):
                report.append(f"intersection {ii}: active phase {st.pi} out of range")
            if st.tau < 0:
                report.append(f"intersection {ii}: negative elapsed time {st.tau}")
        if report:
            raise SimulationError(f"step {self.t}: " + "; ".join(report))

    def metrics(self) -> MetricsRecord:
        return MetricsRecord(
            total_stop_delay=self.total_stop_delay,
            vehicles_injected=self.injector.total_injected,
            vehicles_removed=self.removed_total,
            vehicles_in_network=self.state.vehicle_count,
            horizon=self.t,
            seed=self.config.seed,
            config_digest=config_digest(self.config),
        )


def _write_trace_row(writer, sim: Simulation) -> None:
    # Fixed decimal formatting keeps traces byte-comparable across platforms.
    row: list[str] = [str(sim.t)]
    row += [str(pi) for pi in sim.node_states.pi.tolist()]
    row += [str(o) for o in sim.occupancy.tolist()]
    row += [f"{d:.6f}" for d in sim.backlog.tolist()]
    row += [str(g) for g in sim.gamma.tolist()]
    row.append(str(sim.last_stopped))
    writer.writerow(row)


def run(
    config: SimConfig,
    trace: str | IO[str] | None = None,
    check_invariants: bool = False,
) -> MetricsRecord:
    """Run a configuration to its horizon; optionally write a per-step trace CSV."""
    sim = Simulation(config, check_invariants=check_invariants)
    # a path is opened and closed here; a caller's stream is left open
    with open(trace, "w", newline="") if isinstance(trace, str) else nullcontext(trace) as fh:
        writer = None if fh is None else csv.writer(fh, lineterminator="\n")
        if writer is not None:
            writer.writerow(trace_columns(sim.topology))
        for _ in range(config.horizon):
            sim.step()
            if writer is not None:
                _write_trace_row(writer, sim)
    return sim.metrics()
