"""Lane aggregation: occupancy counts, differential backlog, signal bits."""

from __future__ import annotations

import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from hcasim import IntersectionDescriptor, LaneDescriptor, NetworkTopology
from hcasim.lanes import apply_signal_indications, compute_backlog, compute_occupancy
from netgen import random_config, random_topology

from conftest import mixed_phase_topology, state_with


def test_occupancy_counts_vehicles_per_lane(cross):
    state = state_with(cross, (0, 1, 0), (0, 5, 2), (1, 3, 1), (2, 0, 0))
    occ = compute_occupancy(state)
    assert occ.tolist() == [2, 1, 1, 0]


def test_occupancy_empty_network(cross):
    state = state_with(cross)
    assert compute_occupancy(state).tolist() == [0, 0, 0, 0]


def test_backlog_weighted_by_exit_shares(fork):
    # lane 0 splits 0.3 -> lane 2, 0.7 -> lane 4
    state = state_with(fork, (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (2, 0, 0))
    occ = compute_occupancy(state)
    assert occ.tolist() == [5, 0, 1, 0, 0]
    delta = compute_backlog(occ, fork)
    # by hand: 0.3*(5-1) + 0.7*(5-0)
    assert delta[0] == 0.3 * (5 - 1) + 0.7 * (5 - 0)


def test_backlog_zero_for_exit_lanes(fork):
    state = state_with(fork, (2, 0, 0), (2, 3, 1), (4, 1, 0))
    delta = compute_backlog(compute_occupancy(state), fork)
    # network-exit lanes have no successors, so no surplus to measure
    assert delta[2] == 0.0
    assert delta[4] == 0.0


def test_backlog_accumulates_exit_terms_left_to_right():
    # terms 2.4, 1.2, 0.4 sum to 3.9999999999999996 added in exit order from
    # 0.0; a compensated sum (Python 3.12's sum()) would give 4.0
    lanes = (
        LaneDescriptor(10, None, 0, ((1, 0.6), (2, 0.3), (3, 0.1))),
        LaneDescriptor(10, 0, None),
        LaneDescriptor(10, 0, None),
        LaneDescriptor(10, 0, None),
        LaneDescriptor(10, None, 0, ((1, 1.0),)),
    )
    node = IntersectionDescriptor(inbound_lanes=(0, 4), phases=((0,), (4,)))
    topo = NetworkTopology(lanes, (node,), ((0, 0), (4, 0)))
    delta = compute_backlog([4, 0, 0, 0, 0], topo)
    assert delta[0] == 3.9999999999999996
    assert delta[4] == 0.0


def test_backlog_can_go_negative(cross):
    # downstream fuller than upstream
    state = state_with(cross, (0, 2, 0), (2, 0, 0), (2, 3, 0), (2, 6, 0))
    delta = compute_backlog(compute_occupancy(state), cross)
    assert delta[0] == 1.0 * (1 - 3)


def test_signal_bits_follow_active_phase(cross):
    # phase 0 greens lane 0, phase 1 greens lane 1; exits always green
    assert apply_signal_indications([0], cross).tolist() == [1, 0, 1, 1]
    assert apply_signal_indications([1], cross).tolist() == [0, 1, 1, 1]


def test_signal_bits_multilane_phase(merge):
    # merge node greens both approach lanes in phase 0
    assert apply_signal_indications([0], merge).tolist() == [1, 1, 1, 0, 1]
    assert apply_signal_indications([1], merge).tolist() == [0, 0, 1, 1, 1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_backlog_matches_definition_on_random_networks(seed):
    topo = random_topology(seed)
    occ = [((seed + 3 * li) % 7) for li in range(len(topo.lanes))]
    delta = compute_backlog(occ, topo)
    for li, lane in enumerate(topo.lanes):
        expect = sum(w * (occ[li] - occ[t]) for t, w in lane.exits)
        assert abs(delta[li] - expect) < 1e-12
        if not lane.exits:
            assert delta[li] == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_signal_bits_partition_inbound_lanes(seed):
    topo = random_topology(seed)
    for node_id, node in enumerate(topo.intersections):
        for pi in range(len(node.phases)):
            phases = [0] * len(topo.intersections)
            phases[node_id] = pi
            gamma = apply_signal_indications(phases, topo)
            inbound = {li for ph in node.phases for li in ph}
            for li in inbound:
                assert gamma[li] == (1 if li in node.phases[pi] else 0)


def _signal_oracle(topo: NetworkTopology, pi: list[int]) -> list[int]:
    """1 iff the lane is in the active phase of its downstream node; exits read 1."""
    return [
        1 if lane.downstream is None
        else int(li in topo.intersections[lane.downstream].phases[pi[lane.downstream]])
        for li, lane in enumerate(topo.lanes)
    ]


# exit lanes only: every lane reads green
_NO_INTERSECTIONS = NetworkTopology(
    (LaneDescriptor(10, None, None), LaneDescriptor(4, None, None)), (), ((0, 0), (1, 0))
)


@st.composite
def _network_and_phases(draw):
    topo = draw(
        st.one_of(
            st.integers(0, 10_000).map(lambda seed: random_config(seed).topology),
            st.just(mixed_phase_topology()),
            st.just(_NO_INTERSECTIONS),
        )
    )
    pi = [draw(st.integers(0, len(node.phases) - 1)) for node in topo.intersections]
    return topo, pi


@settings(max_examples=60, deadline=None)
@given(case=_network_and_phases())
def test_signal_bits_match_scalar_oracle(case):
    topo, pi = case
    gamma = apply_signal_indications(pi, topo)
    assert gamma.tolist() == _signal_oracle(topo, pi)


@pytest.mark.parametrize("pi, node", [([0, 2, 0], 1), ([-1, 0, 0], 0)])
def test_signal_bits_reject_a_phase_the_node_lacks(pi, node):
    # node 1 has two phases; unchecked, its phase 2 and node 0's phase -1
    # would read other cells of the flat green table
    with pytest.raises(ValueError, match=f"intersection {node}: phase {pi[node]} out of range"):
        apply_signal_indications(pi, mixed_phase_topology())


@pytest.mark.parametrize(
    "pi, size", [([0], 1), ([0, 0, 0, 0], 4), ([[0, 0, 0]], 3)], ids=["one", "long", "2-d"]
)
def test_signal_bits_reject_a_phase_list_of_the_wrong_length(pi, size):
    # one phase, or a row of them, would broadcast against the node table
    with pytest.raises(ValueError, match=f"active phases: {size} given for 3 intersections"):
        apply_signal_indications(pi, mixed_phase_topology())


@pytest.mark.parametrize(
    "pi, message",
    [
        (np.array([0.7, 1.2, 0.0]), "intersection 0: phase 0.7 is not an integer"),
        ([0, 1, 1.5], "intersection 2: phase 1.5 is not an integer"),
        ([0, 1.0, 2], "intersection 1: phase 1.0 is not an integer"),
        ([0, "1", 2], "intersection 1: phase '1' is not an integer"),
    ],
    ids=["float-array", "float-in-list", "integral-float", "string"],
)
def test_signal_bits_reject_a_phase_that_is_not_an_integer(pi, message):
    # a float phase used to be truncated to the phase below it
    with pytest.raises(ValueError, match=re.escape(message)):
        apply_signal_indications(pi, mixed_phase_topology())


def test_signal_bits_take_any_integer_type():
    topo = mixed_phase_topology()
    want = apply_signal_indications([2, 1, 0], topo).tolist()
    for dtype in (np.int8, np.uint16, np.int32, np.int64):
        assert apply_signal_indications(np.array([2, 1, 0], dtype=dtype), topo).tolist() == want
