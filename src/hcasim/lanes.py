"""Lane-level aggregation: occupancy, differential backlog, signal bits."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Level1Arrays, Level1State, NetworkTopology


def compute_occupancy(state: Level1State | Level1Arrays) -> np.ndarray:
    """Vehicles currently on each lane, as an int array."""
    if type(state) is Level1Arrays:
        return np.bincount(state.data[0], minlength=state.lane_lengths.size)
    return np.fromiter(map(len, state.lane_vehicles), np.intp, len(state.lane_vehicles))


def compute_backlog(occupancy: Sequence[int], topology: NetworkTopology) -> np.ndarray:
    """Differential backlog per lane.

    A lane's backlog is the exit-weighted sum of its occupancy surplus over
    each successor lane, accumulated from 0.0 in exit order, one column of
    :attr:`NetworkTopology.tables` at a time (``sum()`` of floats is
    compensated since Python 3.12); lanes leaving the network have no
    successors and carry a backlog of zero.
    """
    tables = topology.tables
    occ = np.asarray(occupancy, dtype=np.intp)
    total = np.zeros(len(occ))
    for targets, weights in zip(tables.exit_targets, tables.exit_weights):
        total += weights * (occ - occ[targets])
    return total


def apply_signal_indications(phases: Sequence[int], topology: NetworkTopology) -> np.ndarray:
    """Green (1) or red (0) bit per lane, as an int array, under the given
    active phase of each intersection.

    One lookup in the ``[lane, phase]`` green table of
    :attr:`NetworkTopology.tables`; a lane that leaves the network has no
    signal and reads green under every phase.
    """
    tables = topology.tables
    # clipped, an exit lane's node -1 reads node 0's phase: its whole row is
    # green; without intersections every lane is an exit lane
    active = np.take(phases, tables.signal_node, mode="clip") if len(phases) else 0
    return tables.signal_green.take(tables.signal_row + active)
