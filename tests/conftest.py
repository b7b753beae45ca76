import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hcasim import (
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    derive_compatibility,
)
import hcasim.engine
from hcasim.model import Level1Arrays, Level1State, Vehicle


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
        LaneDescriptor(length, None, 0, ((4, 1.0),)),
        LaneDescriptor(length, 0, None),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 1, 3), phases=((0, 1), (3,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (1, 0), (3, 0)))
    return derive_compatibility(topo, v_max)


def mixed_phase_topology(v_max: int = 2) -> NetworkTopology:
    """Three nodes in a row with three, two and three phases.

    Node 0 takes three entry approaches and feeds node 1, which feeds node
    2; node 2's middle phase serves two lanes, one of them shared with its
    last phase.  Five lanes split two ways.
    """
    L = LaneDescriptor
    lanes = (
        L(20, None, 0, ((3, 0.6), (4, 0.4))),
        L(15, None, 0, ((3, 0.5), (5, 0.5))),
        L(12, None, 0, ((5, 1.0),)),
        L(25, 0, 1, ((7, 0.7), (8, 0.3))),
        L(10, 0, None),
        L(10, 0, None),
        L(18, None, 1, ((8, 1.0),)),
        L(22, 1, 2, ((11, 0.5), (12, 0.5))),
        L(10, 1, None),
        L(16, None, 2, ((11, 1.0),)),
        L(14, None, 2, ((12, 0.4), (13, 0.6))),
        L(10, 2, None),
        L(10, 2, None),
        L(10, 2, None),
    )
    nodes = (
        IntersectionDescriptor((0, 1, 2), ((0,), (1,), (2,))),
        IntersectionDescriptor((3, 6), ((3,), (6,))),
        IntersectionDescriptor((7, 9, 10), ((7,), (9, 10), (10,))),
    )
    entries = ((0, 0), (1, 0), (2, 0), (6, 0), (9, 0), (10, 0))
    return derive_compatibility(NetworkTopology(lanes, nodes, entries), v_max)


def state_with(topology: NetworkTopology, *vehicles) -> Level1State:
    """Level-1 state holding the given (lane, cell, speed) vehicles."""
    state = Level1State.empty(topology)
    for vid, (lane, cell, speed) in enumerate(vehicles):
        state.lane_vehicles[lane].append(Vehicle(vid, cell, speed))
    for lst in state.lane_vehicles:
        lst.sort(key=lambda v: v.cell)
    return state


def arrays_of(state: Level1State) -> Level1Arrays:
    """The same vehicles as a :class:`Level1Arrays` state."""
    arrays = Level1Arrays(state.lane_lengths)
    columns = [
        (li, v.cell, v.speed, v.id) for li, lst in enumerate(state.lane_vehicles) for v in lst
    ]
    arrays.data = np.array(columns, dtype=np.intp).reshape(-1, 4).T.copy()
    return arrays


# the size limit that puts every network on each level-1 form
LEVEL1_FORMS = {"lists": sys.maxsize, "arrays": 0}


def each_level1_form(monkeypatch):
    """Yield each level-1 form's name while every new Simulation takes it."""
    for form, limit in LEVEL1_FORMS.items():
        monkeypatch.setattr(hcasim.engine, "ARRAY_MIN_LANES", limit)
        yield form


@pytest.fixture
def cross():
    return cross_topology()


@pytest.fixture
def fork():
    return fork_topology()


@pytest.fixture
def merge():
    return merge_topology()
