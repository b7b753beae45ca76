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

from .model import (
    IntersectionDescriptor,
    IntersectionState,
    NetworkTopology,
    SimConfig,
    SimulationError,
)


def phase_pressure(phase: Sequence[int], backlog: Sequence[float]) -> float:
    """Total differential backlog over the lanes a phase serves.

    Accumulated left to right from 0.0, so the value does not depend on the
    Python version (``sum()`` of floats is compensated since 3.12).
    """
    total = 0.0
    for l in phase:
        total += backlog[l]
    return total


def _priorities(
    node: IntersectionDescriptor, neighbor_states: Sequence[IntersectionState]
) -> list[float]:
    """Coordination priority of every phase of ``node``, floored at zero.

    Reads :attr:`IntersectionDescriptor.coordination_table`: each neighbor's
    running phase looks up the own phases it feeds, which then take that
    neighbor's arrival score ``tau - travel`` if it beats their best so far.
    """
    best = [0.0] * len(node.phases)
    for nbr, travel, feeds in node.coordination_table:
        st = neighbor_states[nbr]
        score = st.tau - travel
        if score > 0:
            for own in feeds.get(st.pi, ()):
                if score > best[own]:
                    best[own] = float(score)
    return best


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
    return _priorities(node, neighbor_states)[phase]


def _next_states(
    nodes: Sequence[IntersectionDescriptor],
    currents: Sequence[IntersectionState],
    backlog: Sequence[float],
    neighbor_states: Sequence[IntersectionState],
    alpha: float,
    min_green: int,
) -> list[IntersectionState]:
    """The selection rule of :func:`select_phase`, over a run of nodes.

    With ``alpha`` at zero the coordination term is not evaluated at all.
    """
    out: list[IntersectionState] = []
    for node, current in zip(nodes, currents):
        pi, tau = current.pi, current.tau
        if tau < min_green:
            out.append(IntersectionState(pi, tau + 1))
            continue
        scores = [phase_pressure(lanes, backlog) for lanes in node.phases]
        if alpha:
            for idx, prio in enumerate(_priorities(node, neighbor_states)):
                scores[idx] += alpha * prio
        best = max(scores)
        chosen = pi if scores[pi] == best else scores.index(best)
        if chosen == pi:
            out.append(IntersectionState(pi, tau + 1))
        else:
            out.append(IntersectionState(chosen, 0))
    return out


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
    held without scoring.
    """
    return _next_states((node,), (current,), backlog, neighbor_states, alpha, min_green)[0]


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
    ) -> list[IntersectionState]:
        # `states` is the previous step's snapshot for every node, so all
        # intersections decide against the same picture.
        return _next_states(
            topology.intersections, states, backlog, states, self.alpha, self.min_green
        )


class FixedTimeSelector:
    """Cyclic phase plan with fixed per-phase green durations.

    ``split[j]`` is the green time of phase ``j`` (indexed modulo the split
    length when an intersection has more phases than the split names).
    Zero-duration phases are skipped.
    """

    def __init__(self, split: Sequence[int]):
        self.split = tuple(split)

    def _duration(self, phase: int) -> int:
        return self.split[phase % len(self.split)]

    def select(
        self,
        topology: NetworkTopology,
        backlog: Sequence[float],
        states: Sequence[IntersectionState],
    ) -> list[IntersectionState]:
        out: list[IntersectionState] = []
        for i, node in enumerate(topology.intersections):
            st = states[i]
            # a phase with green time G is active for tau = 0 .. G-1
            if st.tau + 1 < self._duration(st.pi):
                out.append(IntersectionState(st.pi, st.tau + 1))
                continue
            n_phases = len(node.phases)
            nxt = (st.pi + 1) % n_phases
            for _ in range(n_phases):
                if self._duration(nxt):
                    break
                nxt = (nxt + 1) % n_phases
            else:
                raise SimulationError(
                    f"intersection {i}: every phase has a zero green split"
                )
            out.append(IntersectionState(nxt, 0))
        return out


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
