"""Domain types: configuration validation, digests, structural checks."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcasim import (
    ConfigError,
    IntersectionDescriptor,
    LaneDescriptor,
    Level1State,
    NetworkTopology,
    SimConfig,
    check_level1,
    config_digest,
    topology_digest,
    validate_topology,
)
from conftest import cross_topology, state_with
from netgen import random_topology


# -- lane / topology descriptors ------------------------------------------


def test_signal_cell_defaults_to_lane_end():
    lane = LaneDescriptor(40, None, 0, ((1, 1.0),))
    assert lane.signal_cell == 40


def test_topology_counts(cross):
    assert cross.n_lanes == 4
    assert cross.n_intersections == 1


# -- SimConfig validation ---------------------------------------------------


def test_config_accepts_defaults(cross):
    cfg = SimConfig(topology=cross)
    assert cfg.v_max == 2 and cfg.p == 0.2 and cfg.horizon == 3600


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"p": 1.5}, "probability out of range"),
        ({"p": -0.1}, "probability out of range"),
        ({"q": 2.0}, "probability out of range"),
        ({"alpha": -1.0}, "must be >= 0"),
        ({"v_max": 0}, "must be >= 1"),
        ({"horizon": 0}, "must be >= 1"),
        ({"min_green": -1}, "must be >= 0"),
        ({"stop_window": 0}, "must be >= 1"),
        ({"strategy": "magic"}, "expected one of"),
        ({"strategy": "fixed_time"}, "positive total"),
        ({"strategy": "fixed_time", "fixed_time_split": (0, 0)}, "positive total"),
        ({"entry_intensities": (0.5,)}, "1 values for 2 entry points"),
        ({"entry_intensities": (0.5, 1.2)}, "probability out of range"),
        ({"alpha": float("nan")}, "must be >= 0 and finite"),
        ({"alpha": float("inf")}, "must be >= 0 and finite"),
    ],
)
def test_config_rejects_bad_values(cross, kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SimConfig(topology=cross, **kwargs)


def test_resolved_intensities_fill_q(cross):
    cfg = SimConfig(topology=cross, q=0.3, entry_intensities=(None, 0.1))
    assert cfg.resolved_intensities() == (0.3, 0.1)
    assert SimConfig(topology=cross, q=0.2).resolved_intensities() == (0.2, 0.2)


def test_effective_alpha_strategy_resolution(cross):
    assert SimConfig(topology=cross, alpha=1.5).effective_alpha() == 1.5
    assert SimConfig(topology=cross, alpha=1.5, strategy="backpressure").effective_alpha() == 0.0


# -- digests ----------------------------------------------------------------


def test_topology_digest_stable_and_sensitive(cross):
    assert topology_digest(cross) == topology_digest(cross_topology())
    other = cross_topology(length=11)
    assert topology_digest(cross) != topology_digest(other)


def test_config_digest_identifies_equal_dynamics(cross):
    hca0 = SimConfig(topology=cross, alpha=0.0, strategy="hca")
    bp = SimConfig(topology=cross, alpha=1.0, strategy="backpressure")
    assert config_digest(hca0) == config_digest(bp)


def test_config_digest_ignores_seed_but_not_dynamics(cross):
    a = SimConfig(topology=cross, seed=1)
    b = SimConfig(topology=cross, seed=99)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(SimConfig(topology=cross, q=0.2))
    assert config_digest(a) != config_digest(SimConfig(topology=cross, alpha=0.5))


# -- validate_topology -------------------------------------------------------


def _mutate(topo, **lane0):
    lanes = list(topo.lanes)
    lanes[0] = dataclasses.replace(lanes[0], **lane0)
    return NetworkTopology(tuple(lanes), topo.intersections, topo.entry_points)


def test_validator_passes_clean_network(cross):
    assert validate_topology(cross) == []


def test_validator_lane_length(cross):
    assert any("length" in v for v in validate_topology(_mutate(cross, length=0)))


def test_validator_accepts_a_lane_given_a_new_length(cross):
    # the stop line follows the lane end; it is not stored separately
    assert validate_topology(_mutate(cross, length=20)) == []


def test_validator_dangling_intersection_refs(cross):
    assert any("does not exist" in v for v in validate_topology(_mutate(cross, upstream=7)))
    assert any("does not exist" in v for v in validate_topology(_mutate(cross, downstream=7)))


def test_validator_exit_probability_sum(cross):
    bad = _mutate(cross, exits=((2, 0.5),))
    assert any("sum to" in v for v in validate_topology(bad))


def test_validator_exit_wiring(cross):
    # lane 3 starts at intersection 0 as well, but steer lane 0 to a lane
    # that does not: make lane 2 originate nowhere
    lanes = list(cross.lanes)
    lanes[2] = dataclasses.replace(lanes[2], upstream=None)
    bad = NetworkTopology(tuple(lanes), cross.intersections, cross.entry_points)
    assert any("does not start at" in v for v in validate_topology(bad))


def test_validator_exit_lane_must_dead_end(cross):
    lanes = list(cross.lanes)
    lanes[2] = dataclasses.replace(lanes[2], exits=((3, 1.0),))
    bad = NetworkTopology(tuple(lanes), cross.intersections, cross.entry_points)
    assert any("empty exits" in v for v in validate_topology(bad))


def test_validator_inbound_lane_needs_exits(cross):
    bad = _mutate(cross, exits=())
    assert any("has no exits" in v for v in validate_topology(bad))


def _with_node(topo, node):
    return NetworkTopology(topo.lanes, (node,), topo.entry_points)


def test_validator_phase_structure(cross):
    n = cross.intersections[0]
    one_phase = IntersectionDescriptor((0, 1), ((0,),))
    assert any("two distinct phases" in v for v in validate_topology(_with_node(cross, one_phase)))
    dup = IntersectionDescriptor((0, 1), ((0,), (0,)))
    assert any("two distinct phases" in v for v in validate_topology(_with_node(cross, dup)))
    empty = IntersectionDescriptor((0, 1), ((0,), ()))
    assert any("is empty" in v for v in validate_topology(_with_node(cross, empty)))
    foreign = IntersectionDescriptor((0, 1), ((0,), (2,)), n.neighbors, n.compatibility)
    assert any("non-inbound" in v for v in validate_topology(_with_node(cross, foreign)))


def test_validator_neighbors_and_compatibility(cross):
    bad_nbr = IntersectionDescriptor((0, 1), ((0,), (1,)), neighbors=((5, 20),))
    assert any("neighbor 5 does not exist" in v for v in validate_topology(_with_node(cross, bad_nbr)))
    bad_time = IntersectionDescriptor((0, 1), ((0,), (1,)), neighbors=((0, 0),))
    assert any("travel time" in v for v in validate_topology(_with_node(cross, bad_time)))
    ghost = IntersectionDescriptor(
        (0, 1), ((0,), (1,)), compatibility=frozenset({(0, 0, 0)})
    )
    assert any("non-neighbor" in v for v in validate_topology(_with_node(cross, ghost)))
    bad_phase = IntersectionDescriptor(
        (0, 1), ((0,), (1,)), neighbors=((0, 20),), compatibility=frozenset({(0, 0, 9)})
    )
    assert any("phase 9 invalid" in v for v in validate_topology(_with_node(cross, bad_phase)))


def test_validator_entry_points(cross):
    bad = NetworkTopology(cross.lanes, cross.intersections, ((9, 0),))
    assert any("entry 0" in v for v in validate_topology(bad))
    off = NetworkTopology(cross.lanes, cross.intersections, ((0, 10),))
    assert any("outside lane" in v for v in validate_topology(off))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validator_accepts_generated_networks(seed):
    assert validate_topology(random_topology(seed)) == []


# -- Level1State / check_level1 ----------------------------------------------


def test_state_cell_view_matches_records(cross):
    state = state_with(cross, (0, 2, 1), (0, 5, 2), (1, 0, 0))
    assert state.vehicle_count == 3
    assert [(v.lane, v.cell, v.speed) for v in state.vehicles()] == [
        (0, 2, 1), (0, 5, 2), (1, 0, 0)
    ]


def test_check_level1_clean(cross):
    state = state_with(cross, (0, 2, 1), (0, 5, 2))
    assert check_level1(state, cross, 2) == []


def test_check_level1_detects_collision_and_order(cross):
    state = state_with(cross, (0, 4, 1), (0, 4, 2))
    assert any("collision" in v for v in check_level1(state, cross, 2))
    state = state_with(cross, (0, 2, 1), (0, 5, 1))
    state.lane_vehicles[0].reverse()
    assert any("collision or unsorted" in v for v in check_level1(state, cross, 2))


def test_check_level1_detects_bounds_and_tags(cross):
    state = state_with(cross, (0, 12, 1))
    assert any("off-lane" in v for v in check_level1(state, cross, 2))
    state = state_with(cross, (0, 3, 5))
    assert any("speed" in v for v in check_level1(state, cross, 2))
    state = state_with(cross, (0, 3, 1))
    state.lane_vehicles[0][0].lane = 2
    assert any("tagged" in v for v in check_level1(state, cross, 2))

