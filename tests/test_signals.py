"""Phase scoring and selection: pressure, coordination, argmax, fixed plans."""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hcasim import (
    AdaptiveSelector,
    FixedTimeSelector,
    IntersectionDescriptor,
    IntersectionState,
    SimConfig,
    SimulationError,
    controller_strategy,
    coordination_priority,
    phase_pressure,
    select_phase,
)
from conftest import cross_topology
from netgen import random_topology


def _node(phases, neighbors=(), compat=()):
    inbound = tuple(sorted({l for ph in phases for l in ph}))
    return IntersectionDescriptor(inbound, tuple(phases), tuple(neighbors), frozenset(compat))


# --- phase pressure -------------------------------------------------------


def test_phase_pressure_sums_served_lanes():
    assert phase_pressure((0, 2), [1.5, 9.0, -0.5, 4.0]) == 1.0
    assert phase_pressure((), [1.0, 2.0]) == 0.0


def test_phase_pressure_accumulates_left_to_right():
    # ((0.0 + 0.1) + 0.2) + 0.3; a compensated sum (Python 3.12's sum()) gives 0.6
    assert phase_pressure((0, 1, 2), [0.1, 0.2, 0.3]) == 0.6000000000000001


def test_select_scores_three_lane_phase_left_to_right():
    # phase 0 scores 0.6000000000000001 and strictly beats the incumbent's
    # 0.6; under a compensated sum the two would tie and the incumbent stay
    node = _node([(0, 1, 2), (3,)])
    out = select_phase(node, [0.1, 0.2, 0.3, 0.6], [], IntersectionState(1, 4), alpha=0.0)
    assert out == IntersectionState(0, 0)


# --- coordination score from one neighbor ---------------------------------
# The arrival score f of one neighbor is tau - travel when the neighbor's
# running phase feeds the scored phase, and -inf otherwise; the priority of
# a phase is the best f over its neighbors, floored at zero.


def _one_neighbor_priority(tau, travel, compatible):
    compat = {(0, 0, 0)} if compatible else set()
    node = _node([(0,), (1,)], neighbors=((0, travel),), compat=compat)
    return coordination_priority(node, 0, [IntersectionState(0, tau)])


@pytest.mark.parametrize(
    "tau,travel,compatible,expect",
    [
        (25, 20, True, 5.0),
        (10, 20, True, -10.0),
        (20, 20, True, 0.0),
        (0, 1, True, -1.0),
        (100, 20, False, -math.inf),
        (0, 20, False, -math.inf),
    ],
)
def test_coordination_f_values(tau, travel, compatible, expect):
    assert _one_neighbor_priority(tau, travel, compatible) == max(expect, 0.0)


@settings(max_examples=100, deadline=None)
@given(tau=st.integers(0, 500), travel=st.integers(1, 100))
def test_coordination_f_sign_tracks_platoon_arrival(tau, travel):
    # positive exactly when the neighbor's green has outlasted the travel time
    f = _one_neighbor_priority(tau, travel, True)
    assert (f > 0) == (tau > travel)
    assert _one_neighbor_priority(tau, travel, False) == 0.0


# --- per-phase coordination priority ---------------------------------------


def test_priority_takes_best_neighbor():
    node = _node(
        [(0,), (1,)],
        neighbors=((0, 20), (1, 20)),
        compat={(0, 0, 0)},  # only neighbor 0 phase 0 feeds our phase 0
    )
    states = [IntersectionState(0, 25), IntersectionState(0, 99)]
    # neighbor 0 scores 5, neighbor 1 is incompatible (-inf)
    assert coordination_priority(node, 0, states) == 5.0


def test_priority_zero_when_all_neighbors_incompatible():
    node = _node([(0,), (1,)], neighbors=((0, 20),), compat=set())
    states = [IntersectionState(0, 99)]
    assert coordination_priority(node, 0, states) == 0.0


def test_priority_zero_without_neighbors():
    node = _node([(0,), (1,)])
    assert coordination_priority(node, 0, []) == 0.0


def test_priority_ignores_triples_naming_no_own_phase():
    # -1 and 2 are not phases of this two-phase node; neither may credit one
    node = _node([(0,), (1,)], neighbors=((0, 20),), compat={(0, 0, -1), (0, 0, 2)})
    states = [IntersectionState(0, 30)]
    assert [coordination_priority(node, ph, states) for ph in (0, 1)] == [0.0, 0.0]


def test_priority_floors_finite_negative_scores():
    # best raw score is 10 - 20 = -10; the clamp keeps it from acting as a veto
    node = _node([(0,), (1,)], neighbors=((0, 20),), compat={(0, 0, 0)})
    states = [IntersectionState(0, 10)]
    assert coordination_priority(node, 0, states) == 0.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_coordination_table_matches_brute_force(seed, data):
    # the compiled (neighbor, travel, {neighbor phase: own phases}) table must
    # give max(tau - travel) over compatible neighbors, floored at 0
    topo = random_topology(seed)
    states = [
        IntersectionState(
            data.draw(st.integers(0, len(node.phases) - 1)), data.draw(st.integers(0, 40))
        )
        for node in topo.intersections
    ]
    for node in topo.intersections:
        for phase in range(len(node.phases)):
            raw = [
                states[nbr].tau - travel
                for nbr, travel in node.neighbors
                if (nbr, states[nbr].pi, phase) in node.compatibility
            ]
            assert coordination_priority(node, phase, states) == max(raw + [0])


# --- single-node phase selection -------------------------------------------


def test_select_pure_pressure_argmax():
    node = _node([(0,), (1,)])
    out = select_phase(node, [3.0, 7.0], [], IntersectionState(0, 5), alpha=0.0)
    assert out == IntersectionState(1, 0)


def test_select_alpha_flips_decision():
    # coordination favors phase 0 (neighbor green for 30 of travel time 20),
    # pressure favors phase 1; the weight decides which wins
    node = _node([(0,), (1,)], neighbors=((0, 20),), compat={(0, 0, 0)})
    nbr = [IntersectionState(0, 30)]
    backlog = [3.0, 7.0]
    cur = IntersectionState(1, 4)
    assert select_phase(node, backlog, nbr, cur, alpha=0.0) == IntersectionState(1, 5)
    # 3 + 1*10 = 13 > 7
    assert select_phase(node, backlog, nbr, cur, alpha=1.0) == IntersectionState(0, 0)


def test_select_tie_keeps_incumbent():
    node = _node([(0,), (1,)])
    out = select_phase(node, [5.0, 5.0], [], IntersectionState(1, 7), alpha=0.0)
    assert out == IntersectionState(1, 8)


def test_select_tie_without_incumbent_takes_lowest_index():
    node = _node([(0,), (1,), (2,)])
    out = select_phase(node, [5.0, 5.0, 3.0], [], IntersectionState(2, 9), alpha=0.0)
    assert out == IntersectionState(0, 0)


def test_select_min_green_holds_incumbent_unscored():
    node = _node([(0,), (1,)])
    cur = IntersectionState(0, 2)
    out = select_phase(node, [0.0, 100.0], [], cur, alpha=0.0, min_green=5)
    assert out == IntersectionState(0, 3)
    # once the hold expires the pressure difference takes over
    out = select_phase(node, [0.0, 100.0], [], IntersectionState(0, 5), alpha=0.0, min_green=5)
    assert out == IntersectionState(1, 0)


def test_select_tau_counts_steps_since_activation():
    node = _node([(0,), (1,)])
    st_ = IntersectionState(0, 0)
    for expect_tau in (1, 2, 3):
        st_ = select_phase(node, [9.0, 1.0], [], st_, alpha=0.0)
        assert st_ == IntersectionState(0, expect_tau)
    st_ = select_phase(node, [1.0, 9.0], [], st_, alpha=0.0)
    assert st_ == IntersectionState(1, 0)


@settings(max_examples=60, deadline=None)
@given(
    backlog=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    incumbent=st.integers(0, 2),
)
def test_select_result_always_a_maximum(backlog, incumbent):
    node = _node([(0,), (1,), (2,)])
    out = select_phase(node, backlog, [], IntersectionState(incumbent, 1), alpha=0.0)
    best = max(backlog)
    assert backlog[out.pi] == best
    # the incumbent is abandoned only when it is strictly beaten
    if backlog[incumbent] == best:
        assert out.pi == incumbent


@settings(max_examples=60, deadline=None)
@given(
    p0=st.floats(0, 5, allow_nan=False),
    p1=st.floats(0, 5, allow_nan=False),
    tau=st.integers(21, 60),
    lo=st.floats(0.0, 2.0, allow_nan=False),
    hi=st.floats(0.0, 2.0, allow_nan=False),
)
def test_alpha_influence_is_monotone(p0, p1, tau, lo, hi):
    # only phase 0 receives coordination, so raising alpha can only move the
    # decision toward phase 0, never away from it
    if lo > hi:
        lo, hi = hi, lo
    node = _node([(0,), (1,)], neighbors=((0, 20),), compat={(0, 0, 0)})
    nbr = [IntersectionState(0, tau)]
    cur = IntersectionState(1, 3)
    at_lo = select_phase(node, [p0, p1], nbr, cur, alpha=lo)
    at_hi = select_phase(node, [p0, p1], nbr, cur, alpha=hi)
    if at_lo.pi == 0:
        assert at_hi.pi == 0


def test_thousand_pressure_instances_match_oracle():
    # independent argmax-with-ties oracle over small-integer backlogs
    rng = random.Random(424242)
    for _ in range(1000):
        n_phases = rng.randint(2, 4)
        lanes = list(range(rng.randint(n_phases, 8)))
        rng.shuffle(lanes)
        cuts = sorted(rng.sample(range(1, len(lanes)), n_phases - 1))
        phases = []
        prev = 0
        for c in cuts + [len(lanes)]:
            phases.append(tuple(lanes[prev:c]))
            prev = c
        node = _node(phases)
        backlog = [float(rng.randint(-2, 2)) for _ in range(len(lanes))]
        incumbent = rng.randrange(n_phases)
        tau = rng.randint(0, 40)

        sums = [sum(backlog[l] for l in ph) for ph in phases]
        best = max(sums)
        want = incumbent if sums[incumbent] == best else sums.index(best)
        want_tau = tau + 1 if want == incumbent else 0

        got = select_phase(node, backlog, [], IntersectionState(incumbent, tau), alpha=0.0)
        assert (got.pi, got.tau) == (want, want_tau)


# --- selectors --------------------------------------------------------------


def test_adaptive_selector_runs_every_node():
    topo = cross_topology()
    sel = AdaptiveSelector(alpha=0.0)
    out = sel.select(topo, [4.0, 1.0, 0.0, 0.0], [IntersectionState(1, 3)])
    assert out == [IntersectionState(0, 0)]


def test_fixed_time_cycles_through_split():
    topo = cross_topology()
    sel = FixedTimeSelector((30, 30))
    states = [IntersectionState(0, 0)]
    seen = []
    for _ in range(120):
        seen.append(states[0])
        states = sel.select(topo, [0.0] * 4, states)
    pis = [s.pi for s in seen]
    assert pis == [0] * 30 + [1] * 30 + [0] * 30 + [1] * 30
    assert [s.tau for s in seen[:31]] == list(range(30)) + [0]


def test_fixed_time_skips_zero_duration_phase():
    topo = cross_topology()
    sel = FixedTimeSelector((1, 0))
    states = [IntersectionState(0, 0)]
    for _ in range(10):
        states = sel.select(topo, [0.0] * 4, states)
        assert states[0] == IntersectionState(0, 0)


def test_fixed_time_split_indexes_modulo():
    # 2-phase node with a 1-entry split: both phases get the same duration
    topo = cross_topology()
    sel = FixedTimeSelector((2,))
    states = [IntersectionState(0, 0)]
    pis = []
    for _ in range(8):
        pis.append(states[0].pi)
        states = sel.select(topo, [0.0] * 4, states)
    assert pis == [0, 0, 1, 1, 0, 0, 1, 1]


def test_fixed_time_all_zero_split_raises():
    topo = cross_topology()
    sel = FixedTimeSelector((0, 0))
    with pytest.raises(SimulationError, match="zero green split"):
        sel.select(topo, [0.0] * 4, [IntersectionState(0, 0)])


def test_controller_strategy_builds_matching_selector():
    topo = cross_topology()
    hca = controller_strategy(SimConfig(topo, alpha=0.7, strategy="hca"))
    assert isinstance(hca, AdaptiveSelector) and hca.alpha == 0.7
    bp = controller_strategy(SimConfig(topo, alpha=0.7, strategy="backpressure"))
    assert isinstance(bp, AdaptiveSelector) and bp.alpha == 0.0
    ft = controller_strategy(
        SimConfig(topo, strategy="fixed_time", fixed_time_split=(20, 10))
    )
    assert isinstance(ft, FixedTimeSelector) and ft.split == (20, 10)


def test_controller_strategy_passes_min_green():
    topo = cross_topology()
    sel = controller_strategy(SimConfig(topo, strategy="hca", min_green=7))
    assert isinstance(sel, AdaptiveSelector) and sel.min_green == 7
