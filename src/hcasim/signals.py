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
    SimulationError,
    TopologyTables,
)


def _one_node(node: IntersectionDescriptor) -> TopologyTables:
    return NetworkTopology((), (node,), ()).tables


def _coordination(tables: TopologyTables, states: Level3State) -> np.ndarray:
    """Coordination priority of every (node, phase) slot, floored at zero.

    Each coordination entry credits its own phase with the neighbor's
    arrival score ``tau - travel`` when the neighbor runs the entry's phase
    and the score is positive; a phase keeps its best credit.
    """
    nbr, nbr_phase, travel = tables.coordination
    score = np.where(states.pi.take(nbr) == nbr_phase, states.tau.take(nbr) - travel, 0.0)
    return score.max(axis=2, initial=0.0)


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


_UNSIZED = np.zeros(0)  # sized by the first select, not at construction


class AdaptiveSelector:
    """Per-step phase choice from pressure plus weighted coordination.

    Each phase of a node scores its pressure plus ``alpha`` times its
    coordination priority.  The incumbent phase keeps running on a score
    tie; otherwise the lowest phase index among the maxima wins.  ``tau``
    is the elapsed time since activation: 0 on the step a phase comes up,
    incremented on every held step.  While ``tau`` is below ``min_green``
    the incumbent is held whatever the scores.  ``alpha`` is an array of
    one weight per node, as the engine builds it copy by copy, or one
    weight for every node.  With every weight at zero the coordination
    term is not evaluated at all.
    """

    reads_backlog = True  # the engine computes level 2 for it every step

    def __init__(self, alpha: float | np.ndarray, min_green: int = 0):
        self.alpha = alpha
        self.min_green = min_green
        # a column that scales each node's row of scores, or every row when
        # it holds one weight; None when every weight is 0 (no coordination)
        weight = np.reshape(alpha, (-1, 1))
        self._weight = weight if weight.any() else None
        self._padded = _UNSIZED  # the backlog, then 0.0 for padding lane -1

    def select(
        self,
        topology: NetworkTopology,
        backlog: Sequence[float],
        states: Level3State,
    ) -> Level3State:
        # `states` is the previous step's snapshot for every node, so all
        # intersections decide against the same picture.
        tables = topology.tables
        padded = self._padded
        if padded.size != len(backlog) + 1:
            padded = self._padded = np.zeros(len(backlog) + 1)
        padded[:-1] = backlog
        scores = tables.phase_base.copy()
        for by_lane in padded.take(tables.phase_lanes):
            scores += by_lane
        if self._weight is not None:
            scores += self._weight * _coordination(tables, states)
        pi, tau = states.pi, states.tau
        top = scores.argmax(axis=1)  # the lowest phase index among the maxima
        flat = scores.ravel()
        keep = flat.take(tables.phase_row + pi) == flat.take(tables.phase_row + top)
        if self.min_green:
            keep |= tau < self.min_green
        return Level3State(np.where(keep, pi, top), np.where(keep, tau + 1, 0))


class FixedTimeSelector:
    """Cyclic phase plan with fixed per-phase green durations.

    ``split[j]`` is the green time of phase ``j`` (indexed modulo the split
    length when an intersection has more phases than the split names).
    Zero-duration phases are skipped.  The plan never reads the backlog, so
    the engine hands it None.  On a step where every node holds its phase,
    the result shares its input's ``pi`` array.
    """

    reads_backlog = False

    def __init__(self, split: Sequence[int]):
        self.split = tuple(split)
        self._plan: tuple[NetworkTopology, np.ndarray, np.ndarray] | None = None

    def _compile(self, topology: NetworkTopology) -> tuple[np.ndarray, np.ndarray]:
        """Per node and phase, flat: the green time, and the next phase with one."""
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
        return duration.ravel(), following.ravel()

    def select(
        self,
        topology: NetworkTopology,
        backlog: Sequence[float] | None,
        states: Level3State,
    ) -> Level3State:
        if self._plan is None or self._plan[0] is not topology:
            self._plan = (topology, *self._compile(topology))
        _, duration, following = self._plan
        pi, tau = states.pi, states.tau
        at = topology.tables.phase_row + pi
        # a phase with green time G is active for tau = 0 .. G-1
        held = tau + 1
        hold = held < duration.take(at)
        if np.count_nonzero(hold) == hold.size:
            return Level3State(pi, held)
        return Level3State(np.where(hold, pi, following.take(at)), np.where(hold, held, 0))
