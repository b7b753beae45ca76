"""Lane-level aggregation: occupancy, differential backlog, signal bits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Level1Arrays, Level1State, NetworkTopology


def compute_occupancy(state: Level1State | Level1Arrays) -> list[int] | np.ndarray:
    """Vehicles currently on each lane (an int array for :class:`Level1Arrays`)."""
    if type(state) is Level1Arrays:
        return np.bincount(state.data[0], minlength=state.lane_lengths.size)
    return list(map(len, state.lane_vehicles))


def compute_backlog(occupancy: Sequence[int], topology: NetworkTopology) -> np.ndarray:
    """Differential backlog per lane.

    A lane's backlog is the exit-weighted sum of its occupancy surplus over
    each successor lane, accumulated from 0.0 in exit order, one column of
    :attr:`NetworkTopology.tables` at a time (``sum()`` of floats is
    compensated since Python 3.12); lanes leaving the network have no
    successors and carry a backlog of zero.
    """
    tables = topology.tables
    occ = np.array(occupancy, dtype=np.intp)
    total = np.zeros(len(occ))
    for targets, weights in zip(tables.exit_targets, tables.exit_weights):
        total += weights * (occ - occ[targets])
    return total


def apply_signal_indications(phases: Sequence[int], topology: NetworkTopology) -> list[int]:
    """Green/red bit per lane under the given active phase of each intersection.

    Lanes that leave the network have no signal and always read green.  The
    engine calls this once, at construction; afterwards it rewrites only the
    bits of intersections whose phase changed.
    """
    gamma = [1] * len(topology.lanes)
    for li, lane in enumerate(topology.lanes):
        node = lane.downstream
        if node is not None:
            active = topology.intersections[node].phases[phases[node]]
            gamma[li] = 1 if li in active else 0
    return gamma
