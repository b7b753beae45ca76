"""Intersection-level control: phase scoring and per-step selection.

The adaptive controller scores each phase as queue pressure plus a weighted
coordination priority and activates the argmax every step.  Coordination
looks at upstream neighbor intersections: a neighbor that has been running a
compatible phase for longer than the travel time between the two nodes is
about to deliver a platoon, which raises the priority of the receiving
phase.  With the weight at zero the controller reduces to pure
pressure-driven switching.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import (
    IntersectionDescriptor,
    IntersectionState,
    Level3State,
    NetworkTopology,
    SimConfig,
    SimulationError,
    TopologyTables,
)


def _one_node(node: IntersectionDescriptor) -> TopologyTables:
    return NetworkTopology((), (node,), ()).tables


def _coordination(tables: TopologyTables, neighbors: Level3State) -> np.ndarray:
    """Coordination priority of every (node, phase) slot, floored at zero.

    Each coordination entry credits its own phase with the neighbor's
    arrival score ``tau - travel`` when the neighbor runs the entry's phase
    and the score is positive; a phase keeps its best credit.
    """
    own, nbr, nbr_phase, travel = tables.coordination
    score = neighbors.tau[nbr] - travel
    hit = (score > 0) & (neighbors.pi[nbr] == nbr_phase)
    prio = np.zeros(tables.phase_base.size)
    np.maximum.at(prio, own[hit], score[hit])
    return prio.reshape(tables.phase_base.shape)


_PAD = np.zeros(1)


def _select(
    tables: TopologyTables,
    backlog: Sequence[float],
    current: Level3State,
    neighbors: Level3State,
    alpha: float,
    min_green: int,
) -> Level3State:
    """The rule of :func:`select_phase` for every node of ``tables`` at once.

    With ``alpha`` at zero the coordination term is not evaluated at all.
    """
    padded = np.concatenate((backlog, _PAD))  # padding lane -1 reads a backlog of 0.0
    scores = tables.phase_base.copy()
    for lanes in tables.phase_lanes:
        scores += padded[lanes]
    if alpha:
        scores += alpha * _coordination(tables, neighbors)
    pi, tau = current.pi, current.tau
    rows = np.arange(len(pi))
    top = scores.argmax(axis=1)  # the lowest phase index among the maxima
    keep = scores[rows, pi] == scores[rows, top]
    if min_green:
        keep |= tau < min_green
    return Level3State(np.where(keep, pi, top), np.where(keep, tau + 1, 0))


def coordination_priority(
    node: IntersectionDescriptor,
    phase: int,
    neighbor_states: Sequence[IntersectionState],
) -> float:
    """Best platoon-arrival score for a phase, floored at zero.

    ``neighbor_states`` is indexed by global intersection id and must hold
    the previous step's states.  The raw score is the max of the arrival
    scores over all upstream neighbors; it is clamped to ``max(raw, 0)`` so
    coordination can only add encouragement, never veto a phase.  Without
    the clamp a boundary intersection with no upstream neighbor (or one
    whose neighbors all run incompatible phases) would carry a -inf score
    that overrides arbitrarily large queue pressure whenever alpha > 0.
    """
    return float(_coordination(_one_node(node), Level3State.of(neighbor_states))[0, phase])


def select_phase(
    node: IntersectionDescriptor,
    backlog: Sequence[float],
    neighbor_states: Sequence[IntersectionState],
    current: IntersectionState,
    alpha: float,
    min_green: int = 0,
) -> IntersectionState:
    """Next (phase, elapsed) pair for one intersection.

    Each phase scores its pressure plus ``alpha`` times its coordination
    priority.  The incumbent phase keeps running on a score tie; otherwise
    the lowest phase index among the maxima wins.  ``tau`` is the elapsed
    time since activation: 0 on the step a phase comes up, incremented on
    every held step.  While ``tau`` is below ``min_green`` the incumbent is
    held whatever the scores.
    """
    return _select(
        _one_node(node),
        backlog,
        Level3State.of((current,)),
        Level3State.of(neighbor_states),
        alpha,
        min_green,
    )[0]


class AdaptiveSelector:
    """Per-step phase choice from pressure plus weighted coordination."""

    def __init__(self, alpha: float, min_green: int = 0):
        self.alpha = alpha
        self.min_green = min_green

    def select(
        self,
        topology: NetworkTopology,
        backlog: Sequence[float],
        states: Sequence[IntersectionState],
    ) -> Level3State:
        # `states` is the previous step's snapshot for every node, so all
        # intersections decide against the same picture.
        states = Level3State.of(states)
        return _select(
            topology.tables, backlog, states, states, self.alpha, self.min_green
        )


class FixedTimeSelector:
    """Cyclic phase plan with fixed per-phase green durations.

    ``split[j]`` is the green time of phase ``j`` (indexed modulo the split
    length when an intersection has more phases than the split names).
    Zero-duration phases are skipped.
    """

    def __init__(self, split: Sequence[int]):
        self.split = tuple(split)
        self._plan: tuple[NetworkTopology, np.ndarray, np.ndarray] | None = None

    def _compile(self, topology: NetworkTopology) -> tuple[np.ndarray, np.ndarray]:
        """Per node and phase: the green time, and the next phase with one."""
        shape = topology.tables.phase_base.shape
        duration = np.zeros(shape, dtype=np.intp)
        following = np.zeros(shape, dtype=np.intp)
        for i, node in enumerate(topology.intersections):
            n_phases = len(node.phases)
            durs = [self.split[j % len(self.split)] for j in range(n_phases)]
            if not any(durs):
                raise SimulationError(
                    f"intersection {i}: every phase has a zero green split"
                )
            duration[i, :n_phases] = durs
            for j in range(n_phases):
                nxt = (j + 1) % n_phases
                while not durs[nxt]:
                    nxt = (nxt + 1) % n_phases
                following[i, j] = nxt
        return duration, following

    def select(
        self,
        topology: NetworkTopology,
        backlog: Sequence[float],
        states: Sequence[IntersectionState],
    ) -> Level3State:
        if self._plan is None or self._plan[0] is not topology:
            self._plan = (topology, *self._compile(topology))
        _, duration, following = self._plan
        states = Level3State.of(states)
        pi, tau = states.pi, states.tau
        rows = np.arange(len(pi))
        # a phase with green time G is active for tau = 0 .. G-1
        hold = tau + 1 < duration[rows, pi]
        return Level3State(
            np.where(hold, pi, following[rows, pi]), np.where(hold, tau + 1, 0)
        )


def controller_strategy(config: SimConfig):
    """Build the phase selector a config asks for.

    ``backpressure`` is the adaptive selector with the coordination weight
    pinned to zero; ``hca`` uses the configured weight; ``fixed_time`` cycles
    through the configured split.
    """
    if config.strategy == "fixed_time":
        assert config.fixed_time_split is not None  # enforced by SimConfig
        return FixedTimeSelector(config.fixed_time_split)
    return AdaptiveSelector(config.effective_alpha(), config.min_green)
