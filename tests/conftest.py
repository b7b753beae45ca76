import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hcasim import (
    IntersectionDescriptor,
    LaneDescriptor,
    Level1State,
    NetworkTopology,
    Vehicle,
    derive_compatibility,
)


def cross_topology(length: int = 10, v_max: int = 2) -> NetworkTopology:
    """Two approach lanes into one intersection, each with its own exit lane.

    Lane ids: 0 and 1 approach, 2 and 3 exit (0 -> 2, 1 -> 3); phase 0 serves
    lane 0, phase 1 serves lane 1; entries at the first cell of each approach.
    """
    lanes = (
        LaneDescriptor(length, None, 0, ((2, 1.0),)),
        LaneDescriptor(length, None, 0, ((3, 1.0),)),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1), phases=((0,), (1,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0)))
    return derive_compatibility(topo, v_max)


def fork_topology(length: int = 10, w: float = 0.3, v_max: int = 2) -> NetworkTopology:
    """Like cross_topology but lane 0 splits onto two exit lanes (2 and 4)."""
    lanes = (
        LaneDescriptor(length, None, 0, ((2, w), (4, round(1.0 - w, 10)))),
        LaneDescriptor(length, None, 0, ((3, 1.0),)),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1), phases=((0,), (1,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0)))
    return derive_compatibility(topo, v_max)


def merge_topology(length: int = 10, v_max: int = 2) -> NetworkTopology:
    """Two approach lanes that both continue onto the same exit lane.

    Both lanes sit in the same (sole green-capable) phase, so simultaneous
    crossings compete for cells on lane 2.
    """
    lanes = (
        LaneDescriptor(length, None, 0, ((2, 1.0),)),
        LaneDescriptor(length, None, 0, ((2, 1.0),)),
        LaneDescriptor(length, 0, None),
        LaneDescriptor(length, None, 0, ((3, 1.0),)),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1, 3), phases=((0, 1), (3,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0), (3, 0)))
    return derive_compatibility(topo, v_max)


def state_with(topology: NetworkTopology, *vehicles) -> Level1State:
    """Level-1 state holding the given (lane, cell, speed) vehicles."""
    state = Level1State.empty(topology)
    for vid, (lane, cell, speed) in enumerate(vehicles):
        state.lane_vehicles[lane].append(Vehicle(vid, lane, cell, speed))
    for lst in state.lane_vehicles:
        lst.sort(key=lambda v: v.cell)
    return state


@pytest.fixture
def cross():
    return cross_topology()


@pytest.fixture
def fork():
    return fork_topology()


@pytest.fixture
def merge():
    return merge_topology()
