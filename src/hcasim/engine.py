"""Run loop tying the three model levels together.

Step order, fixed by contract:

1. arrivals are drawn and placed, then every vehicle moves synchronously
   under the signal indications chosen at the end of the previous step;
2. lane occupancy and differential backlog are computed from the moved
   vehicles when the selector reads them: the adaptive selectors do on every
   step, a fixed-time plan never does, and its steps skip level 2;
3. every intersection selects its next phase from the fresh backlogs and the
   previous step's neighbor states;
4. the chosen phases fix the per-lane signal indications of the next move.
   The next step looks them up in a table, range-checked, before its
   arrivals, and only when the phase array changed since the last lookup
   (on a fixed-time plan's hold steps it does not).

Stop delay then accumulates: one unit per vehicle standing still at the end
of the step, not counting vehicles placed this step.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import IO, Sequence

import numpy as np

from .lanes import apply_signal_indications, compute_backlog, compute_occupancy
from .model import (
    ConfigError,
    Level1Arrays,
    Level3State,
    NetworkTopology,
    SimConfig,
    SimulationError,
    check_integer,
    check_level1,
    config_digest,
    replicate,
    validate_topology,
)
from .signals import AdaptiveSelector, FixedTimeSelector
from .vehicles import InjectionProcess, RngStream, advance_all, count_stopped


# The fields in which the copies of one Simulation may differ.
_PER_COPY = frozenset({"q", "entry_intensities", "alpha", "strategy", "seed"})


def _check_shared(configs: Sequence[SimConfig]) -> None:
    """Raise :class:`ConfigError` naming the first field, other than those
    of ``_PER_COPY``, in which ``configs`` differ, and on a fixed-time
    config among adaptive ones."""
    first = configs[0]
    for other in {id(c): c for c in configs[1:] if c is not first}.values():
        for field in fields(SimConfig):
            name = field.name
            if name not in _PER_COPY and getattr(other, name) != getattr(first, name):
                raise ConfigError(f"configs differ in {name}: one simulation's copies share it")
        if (other.strategy == "fixed_time") != (first.strategy == "fixed_time"):
            raise ConfigError(
                f"configs differ in strategy: {first.strategy} and {other.strategy} "
                "cannot share a simulation"
            )


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


class Simulation:
    """Owns the mutable state of a run and advances it step by step.

    With ``seeds`` it is the runs of ``config`` at each seed instead: they
    step together on a network of disjoint copies of the topology, one copy
    and one :class:`RngStream` per seed, and :meth:`records` equal those of
    the runs alone.  ``config`` may also be a sequence of one config per
    copy, each run at its own ``seed`` unless ``seeds`` names them.  Such
    configs may differ in their arrival intensities (``q`` and
    ``entry_intensities``), in ``alpha`` and in ``strategy`` between
    ``backpressure`` and ``hca``; a difference in any other field raises
    :class:`ConfigError` naming it.  :attr:`config` is then the first copy's
    config, and :attr:`configs` holds each copy's.

    To set the phases between steps, assign a new :attr:`node_states`: the
    step reuses its signal bits while the ``pi`` array is the same object,
    and checks elapsed times only in states it did not select itself, so a
    write into either array goes unseen.  The next step checks the new
    states before it changes anything: a ``pi`` whose length is not the
    node count, a phase a node does not have, or an elapsed time that is
    negative or not an integer raises :class:`ValueError` and leaves the
    state, the counters and the random streams as they were.
    """

    def __init__(
        self,
        config: SimConfig | Sequence[SimConfig],
        check_invariants: bool = False,
        *,
        seeds: Sequence[int] | None = None,
    ):
        configs = (config,) if isinstance(config, SimConfig) else tuple(config)
        if not configs:
            raise ValueError("config: empty sequence: must name at least one config")
        seeds = tuple(c.seed for c in configs) if seeds is None else tuple(seeds)
        if not seeds:
            raise ValueError("seeds=(): must name at least one seed")
        for i, seed in enumerate(seeds):
            check_integer(f"seeds[{i}]", seed, 0)
        if isinstance(config, SimConfig):
            configs *= len(seeds)
        elif len(configs) != len(seeds):
            raise ValueError(f"{len(seeds)} seeds for {len(configs)} configs")
        config = configs[0]
        _check_shared(configs)
        report = validate_topology(config.topology)
        if report:
            raise ConfigError("invalid topology: " + "; ".join(report))
        replicas = len(seeds)
        self.config = config
        self.configs = configs
        self.seeds = seeds
        self.topology = replicate(config.topology, replicas)
        self.check_invariants = check_invariants
        self.state = Level1Arrays(self.topology, replicas)
        self.rngs = [RngStream(seed) for seed in seeds]
        intensities = [x for c in configs for x in c.resolved_intensities()]
        self.injector = InjectionProcess(self.topology, intensities, replicas)
        if config.strategy == "fixed_time":
            self.selector = FixedTimeSelector(config.fixed_time_split)
        else:
            # one weight per node, copy by copy; a backpressure copy's is 0
            weights = [c.effective_alpha() for c in configs]
            nodes = config.topology.n_intersections
            self.selector = AdaptiveSelector(np.repeat(weights, nodes), config.min_green)
        n_nodes = self.topology.n_intersections
        self.node_states = Level3State(
            np.zeros(n_nodes, dtype=np.intp), np.zeros(n_nodes, dtype=np.intp)
        )
        # the states the last step selected: only others, set by a caller,
        # have their elapsed times checked
        self._selected = self.node_states
        # the phases the signal bits were last looked up for, and the bits;
        # the first step looks them up and compiles the topology's tables
        self._lit_pi: np.ndarray | None = None
        self._bits: np.ndarray | None = None
        self.t = 0
        # per replica, in seed order
        self.total_stop_delay = np.zeros(replicas, dtype=np.intp)
        self.removed_total = np.zeros(replicas, dtype=np.intp)
        self.last_stopped = np.zeros(replicas, dtype=np.intp)

    @property
    def occupancy(self) -> np.ndarray:
        """Vehicles on each lane now."""
        return compute_occupancy(self.state)

    @property
    def backlog(self) -> np.ndarray:
        """Differential backlog of each lane now."""
        return compute_backlog(compute_occupancy(self.state), self.topology)

    @property
    def gamma(self) -> np.ndarray:
        """Signal bit per lane (1 green, 0 red) under the current phases."""
        return apply_signal_indications(self.node_states.pi, self.topology)

    def step(self) -> None:
        cfg = self.config
        states = self.node_states
        if states is not self._selected:
            for node, elapsed in enumerate(states.tau.tolist()):
                check_integer(f"intersection {node}: elapsed time", elapsed, 0)
        pi = states.pi
        if pi is not self._lit_pi:
            self._lit_pi, self._bits = pi, apply_signal_indications(pi, self.topology)
        placed_from = self.injector.inject(self.state, self.rngs)
        self.removed_total += advance_all(
            self.state, self.topology, self._bits, cfg.v_max, cfg.p, self.rngs
        )

        selector = self.selector
        backlog = (
            compute_backlog(compute_occupancy(self.state), self.topology)
            if selector.reads_backlog
            else None
        )
        self.node_states = self._selected = selector.select(self.topology, backlog, states)

        self.last_stopped = count_stopped(self.state, cfg.stop_window, placed_from)
        self.total_stop_delay += self.last_stopped
        self.t += 1
        if self.check_invariants:
            self._verify()

    def _verify(self) -> None:
        report = check_level1(self.state, self.topology, self.config.v_max)
        injected, removed = self.injector.next_id, self.removed_total
        on_road = self.state.per_replica(self.state.data[0])
        for r in np.flatnonzero(injected != removed + on_road).tolist():
            report.append(
                f"seed {self.seeds[r]}: conservation: injected {injected[r]} != removed "
                f"{removed[r]} + on-road {on_road[r]}"
            )
        pi, tau = self.node_states.pi, self.node_states.tau
        # a negative phase reads as a huge unsigned one
        for ii in np.flatnonzero(pi.view(np.uintp) >= self.topology.tables.phase_count).tolist():
            report.append(f"intersection {ii}: active phase {pi[ii]} out of range")
        for ii in np.flatnonzero(tau < 0).tolist():
            report.append(f"intersection {ii}: negative elapsed time {tau[ii]}")
        if report:
            raise SimulationError(f"step {self.t}: " + "; ".join(report))

    def records(self) -> list[MetricsRecord]:
        """End-of-run summary of each replica, in seed order, each with the
        digest of its own config."""
        digests = {key: config_digest(c) for key, c in {id(c): c for c in self.configs}.items()}
        on_road = self.state.per_replica(self.state.data[0])
        return [
            MetricsRecord(delay, injected, removed, left, self.t, seed, digests[id(config)])
            for config, seed, injected, delay, removed, left in zip(
                self.configs,
                self.seeds,
                self.injector.next_id.tolist(),
                self.total_stop_delay.tolist(),
                self.removed_total.tolist(),
                on_road.tolist(),
            )
        ]


def _write_trace_row(writer, sim: Simulation) -> None:
    # Fixed decimal formatting keeps traces byte-comparable across platforms.
    row: list[str] = [str(sim.t)]
    row += [str(pi) for pi in sim.node_states.pi.tolist()]
    occupancy = compute_occupancy(sim.state)
    row += [str(o) for o in occupancy.tolist()]
    row += [f"{d:.6f}" for d in compute_backlog(occupancy, sim.topology).tolist()]
    row += [str(g) for g in sim.gamma.tolist()]
    row.append(str(sim.last_stopped[0]))
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
    (record,) = sim.records()
    return record


def run_batch(runs: Sequence[tuple[SimConfig, int]]) -> list[MetricsRecord]:
    """``run(replace(config, seed=seed))`` for each ``(config, seed)`` of
    ``runs``, in order, stepped as one :class:`Simulation`, whose rules say
    which configs may share one."""
    sim = Simulation([config for config, _ in runs], seeds=[seed for _, seed in runs])
    for _ in range(sim.config.horizon):
        sim.step()
    return sim.records()
