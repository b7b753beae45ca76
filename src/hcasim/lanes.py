"""Lane-level aggregation: occupancy, differential backlog, signal bits."""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .model import Level1Arrays, NetworkTopology


def compute_occupancy(state: Level1Arrays) -> np.ndarray:
    """Vehicles currently on each lane, as an int array."""
    return np.bincount(state.data[0], minlength=state.lane_lengths.size)


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
    signal and reads green under every phase.  A phase list whose length is
    not the node count, a phase that is not an integer or a phase a node
    does not have raises :class:`ValueError`, the latter two naming the node.
    """
    tables = topology.tables
    pi = np.asarray(phases)
    if pi.shape != tables.phase_count.shape:
        raise ValueError(
            f"active phases: {pi.size} given for {tables.phase_count.size} intersections"
        )
    if pi.dtype.kind not in "iu":
        # the first phase check_integer would refuse: 1.0 is not an integer either
        given = phases.tolist() if isinstance(phases, np.ndarray) else phases
        for node, phase in enumerate(given):
            try:
                operator.index(phase)
            except TypeError:
                message = f"intersection {node}: phase {phase!r} is not an integer"
                raise ValueError(message) from None
    pi = pi.astype(np.intp, copy=False)
    # a negative phase reads as a huge unsigned one
    bad = pi.view(np.uintp) >= tables.phase_count
    if np.count_nonzero(bad):
        node = int(bad.argmax())
        raise ValueError(
            f"intersection {node}: phase {pi[node]} out of range "
            f"(it has {tables.phase_count[node]})"
        )
    # clipped, an exit lane's node -1 reads node 0's phase: its whole row is
    # green; without intersections every lane is an exit lane
    active = pi.take(tables.signal_node, mode="clip") if pi.size else 0
    return tables.signal_green.take(tables.signal_row + active)
