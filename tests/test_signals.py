"""Phase scoring and selection: pressure, coordination, argmax, fixed plans."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import hcasim.signals
from hcasim import (
    IntersectionDescriptor,
    LaneDescriptor,
    NetworkTopology,
    SimConfig,
    Simulation,
    SimulationError,
    grid_config,
)
from hcasim.model import IntersectionState, Level3State
from hcasim.signals import (
    AdaptiveSelector,
    FixedTimeSelector,
    coordination_priority,
)
from conftest import cross_topology, mixed_phase_topology
from netgen import random_topology


def _node(phases, neighbors=(), compat=()):
    inbound = tuple(sorted({l for ph in phases for l in ph}))
    return IntersectionDescriptor(inbound, tuple(phases), tuple(neighbors), frozenset(compat))


def _adaptive(nodes, backlog, states, alpha=0.0, min_green=0):
    """One step of the adaptive selector over ``nodes``, on a network without lanes."""
    topo = NetworkTopology((), tuple(nodes), ())
    return AdaptiveSelector(alpha, min_green).select(topo, backlog, Level3State.of(states))


# node 0, the upstream neighbor of a node under test placed after it as node 1
_UPSTREAM = _node([(0,), (1,)])


# --- phase pressure -------------------------------------------------------


def test_select_scores_three_lane_phase_left_to_right():
    # phase 0 scores 0.6000000000000001 and strictly beats the incumbent's
    # 0.6; under a compensated sum the two would tie and the incumbent stay
    node = _node([(0, 1, 2), (3,)])
    out = _adaptive([node], [0.1, 0.2, 0.3, 0.6], [IntersectionState(1, 4)])
    assert list(out) == [IntersectionState(0, 0)]


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
    # the flattened (own phase, neighbor, neighbor phase, travel) entries must
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


# --- phase selection at one node -------------------------------------------


def test_select_pure_pressure_argmax():
    node = _node([(0,), (1,)])
    out = _adaptive([node], [3.0, 7.0], [IntersectionState(0, 5)])
    assert list(out) == [IntersectionState(1, 0)]


def test_select_alpha_flips_decision():
    # coordination favors phase 0 (neighbor green for 30 of travel time 20),
    # pressure favors phase 1; the weight decides which wins
    node = _node([(0,), (1,)], neighbors=((0, 20),), compat={(0, 0, 0)})
    states = [IntersectionState(0, 30), IntersectionState(1, 4)]
    backlog = [3.0, 7.0]
    _, got = _adaptive([_UPSTREAM, node], backlog, states, alpha=0.0)
    assert got == IntersectionState(1, 5)
    # 3 + 1*10 = 13 > 7
    _, got = _adaptive([_UPSTREAM, node], backlog, states, alpha=1.0)
    assert got == IntersectionState(0, 0)


def test_select_tie_keeps_incumbent():
    node = _node([(0,), (1,)])
    out = _adaptive([node], [5.0, 5.0], [IntersectionState(1, 7)])
    assert list(out) == [IntersectionState(1, 8)]


def test_select_tie_without_incumbent_takes_lowest_index():
    node = _node([(0,), (1,), (2,)])
    out = _adaptive([node], [5.0, 5.0, 3.0], [IntersectionState(2, 9)])
    assert list(out) == [IntersectionState(0, 0)]


def test_select_min_green_holds_incumbent_unscored():
    node = _node([(0,), (1,)])
    out = _adaptive([node], [0.0, 100.0], [IntersectionState(0, 2)], min_green=5)
    assert list(out) == [IntersectionState(0, 3)]
    # once the hold expires the pressure difference takes over
    out = _adaptive([node], [0.0, 100.0], [IntersectionState(0, 5)], min_green=5)
    assert list(out) == [IntersectionState(1, 0)]


def test_select_tau_counts_steps_since_activation():
    node = _node([(0,), (1,)])
    states = [IntersectionState(0, 0)]
    for expect_tau in (1, 2, 3):
        states = _adaptive([node], [9.0, 1.0], states)
        assert list(states) == [IntersectionState(0, expect_tau)]
    states = _adaptive([node], [1.0, 9.0], states)
    assert list(states) == [IntersectionState(1, 0)]


@settings(max_examples=60, deadline=None)
@given(
    backlog=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    incumbent=st.integers(0, 2),
)
def test_select_result_always_a_maximum(backlog, incumbent):
    node = _node([(0,), (1,), (2,)])
    (out,) = _adaptive([node], backlog, [IntersectionState(incumbent, 1)])
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
    nodes = [_UPSTREAM, _node([(0,), (1,)], neighbors=((0, 20),), compat={(0, 0, 0)})]
    states = [IntersectionState(0, tau), IntersectionState(1, 3)]
    _, at_lo = _adaptive(nodes, [p0, p1], states, alpha=lo)
    _, at_hi = _adaptive(nodes, [p0, p1], states, alpha=hi)
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

        (got,) = _adaptive([node], backlog, [IntersectionState(incumbent, tau)])
        assert (got.pi, got.tau) == (want, want_tau)


# --- selectors --------------------------------------------------------------


def test_adaptive_selector_runs_every_node():
    topo = cross_topology()
    sel = AdaptiveSelector(alpha=0.0)
    out = sel.select(topo, [4.0, 1.0, 0.0, 0.0], Level3State.of([IntersectionState(1, 3)]))
    assert list(out) == [IntersectionState(0, 0)]


def test_fixed_time_cycles_through_split():
    topo = cross_topology()
    sel = FixedTimeSelector((30, 30))
    states = Level3State.of([IntersectionState(0, 0)])
    seen = []
    for _ in range(120):
        seen += states
        states = sel.select(topo, [0.0] * 4, states)
    pis = [s.pi for s in seen]
    assert pis == [0] * 30 + [1] * 30 + [0] * 30 + [1] * 30
    assert [s.tau for s in seen[:31]] == list(range(30)) + [0]


def test_fixed_time_skips_zero_duration_phase():
    topo = cross_topology()
    sel = FixedTimeSelector((1, 0))
    states = Level3State.of([IntersectionState(0, 0)])
    for _ in range(10):
        states = sel.select(topo, [0.0] * 4, states)
        assert list(states) == [IntersectionState(0, 0)]


def test_fixed_time_split_indexes_modulo():
    # 2-phase node with a 1-entry split: both phases get the same duration
    topo = cross_topology()
    sel = FixedTimeSelector((2,))
    states = Level3State.of([IntersectionState(0, 0)])
    pis = []
    for _ in range(8):
        pis += states.pi.tolist()
        states = sel.select(topo, [0.0] * 4, states)
    assert pis == [0, 0, 1, 1, 0, 0, 1, 1]


def test_fixed_time_recompiles_its_plan_for_another_topology():
    # one selector handed the grid, then a network of three-phase nodes, then
    # the grid again must step each as a fresh selector does
    shared = FixedTimeSelector((2, 0, 3))
    for topo in (grid_config().topology, mixed_phase_topology(), grid_config().topology):
        fresh = FixedTimeSelector((2, 0, 3))
        states = Level3State.of([IntersectionState(0, 0)] * topo.n_intersections)
        for _ in range(7):
            want = fresh.select(topo, [], states)
            assert list(shared.select(topo, [], states)) == list(want)
            states = want


def test_fixed_time_all_zero_split_raises():
    topo = cross_topology()
    sel = FixedTimeSelector((0, 0))
    with pytest.raises(SimulationError, match="zero green split"):
        sel.select(topo, [0.0] * 4, Level3State.of([IntersectionState(0, 0)]))


def test_simulation_builds_matching_selector():
    # a weight per node, copy by copy; backpressure's is 0
    hca = grid_config(roads_per_direction=2, alpha=0.7, strategy="hca")
    bp = replace(hca, strategy="backpressure")
    for configs, weights in (
        (hca, [0.7] * 4),
        (bp, [0.0] * 4),
        ([bp, hca, bp], [0.0] * 4 + [0.7] * 4 + [0.0] * 4),
    ):
        sel = Simulation(configs).selector
        assert isinstance(sel, AdaptiveSelector) and sel.alpha.tolist() == weights
    ft = Simulation(replace(hca, strategy="fixed_time", fixed_time_split=(20, 10))).selector
    assert isinstance(ft, FixedTimeSelector) and ft.split == (20, 10)


def test_simulation_passes_min_green_to_its_selector():
    sel = Simulation(SimConfig(cross_topology(), strategy="hca", min_green=7)).selector
    assert isinstance(sel, AdaptiveSelector) and sel.min_green == 7


@pytest.mark.parametrize(
    "copies, coordinates",
    [
        ([("backpressure", 1.0)], False),
        ([("hca", 0.0)], False),
        ([("hca", 1.0)], True),
        ([("backpressure", 1.0)] * 3, False),
        ([("backpressure", 1.0), ("hca", 0.0)], False),
        ([("backpressure", 1.0), ("hca", 0.5), ("backpressure", 1.0)], True),
    ],
    ids=["bp", "hca-0", "hca-1", "bp-batch", "bp-hca-0-batch", "bp-hca-batch"],
)
def test_coordination_runs_every_step_exactly_when_some_weight_is_not_zero(
    monkeypatch, copies, coordinates
):
    calls = []
    coordination = hcasim.signals._coordination

    def counted(*args):
        calls.append(args)
        return coordination(*args)

    monkeypatch.setattr(hcasim.signals, "_coordination", counted)
    sim = Simulation(
        [grid_config(q=0.2, seed=i, strategy=s, alpha=a) for i, (s, a) in enumerate(copies)]
    )
    for _ in range(10):
        sim.step()
    assert len(calls) == (10 if coordinates else 0)


# --- array kernels against the scalar rules -----------------------------------
# The selectors run one array kernel over all nodes.  The oracles below are
# the per-node loops the kernels replaced, with the coordination priority
# taken by brute force from ``neighbors`` and ``compatibility``.


def _oracle_priorities(node, states):
    return [
        float(
            max(
                [
                    states[nbr].tau - travel
                    for nbr, travel in node.neighbors
                    if (nbr, states[nbr].pi, phase) in node.compatibility
                ]
                + [0]
            )
        )
        for phase in range(len(node.phases))
    ]


def _oracle_adaptive(topo, backlog, states, alpha, min_green):
    out = []
    for node, current in zip(topo.intersections, states):
        pi, tau = current.pi, current.tau
        if tau < min_green:
            out.append(IntersectionState(pi, tau + 1))
            continue
        scores = []
        for lanes in node.phases:
            total = 0.0
            for l in lanes:
                total += backlog[l]
            scores.append(total)
        if alpha:
            for idx, prio in enumerate(_oracle_priorities(node, states)):
                scores[idx] += alpha * prio
        best = max(scores)
        chosen = pi if scores[pi] == best else scores.index(best)
        if chosen == pi:
            out.append(IntersectionState(pi, tau + 1))
        else:
            out.append(IntersectionState(chosen, 0))
    return out


def _oracle_fixed(split, topo, states):
    out = []
    for i, node in enumerate(topo.intersections):
        st_ = states[i]
        if st_.tau + 1 < split[st_.pi % len(split)]:
            out.append(IntersectionState(st_.pi, st_.tau + 1))
            continue
        n_phases = len(node.phases)
        nxt = (st_.pi + 1) % n_phases
        for _ in range(n_phases):
            if split[nxt % len(split)]:
                break
            nxt = (nxt + 1) % n_phases
        else:
            raise SimulationError(f"intersection {i}: every phase has a zero green split")
        out.append(IntersectionState(nxt, 0))
    return out


_BACKLOGS = (-2.0, -1.0, -0.5, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0)


@st.composite
def _level3_case(draw):
    """A topology whose nodes have 2, 3 and 4 phases (and up to three more
    nodes), a backlog and a state per node.  Node 0's lanes all carry a
    negative backlog, so a padded phase slot that scored 0.0 would win."""
    counts = [2, 3, 4] + draw(st.lists(st.integers(2, 4), max_size=3))
    phase_sets, n_lanes = [], 0
    for n_phases in counts:
        phases = []
        for _ in range(n_phases):
            width = draw(st.integers(1, 3))
            phases.append(tuple(range(n_lanes, n_lanes + width)))
            n_lanes += width
        phase_sets.append(tuple(phases))
    nodes = []
    for i, phases in enumerate(phase_sets):
        others = [j for j in range(len(counts)) if j != i]
        nbrs = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
        compat = set()
        for j in nbrs:
            pairs = st.tuples(st.integers(0, counts[j] - 1), st.integers(0, counts[i] - 1))
            compat |= {(j, a, b) for a, b in draw(st.sets(pairs, max_size=4))}
        nodes.append(
            IntersectionDescriptor(
                tuple(l for ph in phases for l in ph),
                phases,
                tuple((j, draw(st.integers(1, 8))) for j in nbrs),
                frozenset(compat),
            )
        )
    lanes = tuple(LaneDescriptor(5, None, None) for _ in range(n_lanes))
    topo = NetworkTopology(lanes, tuple(nodes), ())
    negative = set(l for ph in phase_sets[0] for l in ph)
    backlog = [
        draw(st.sampled_from(_BACKLOGS[:3] if l in negative else _BACKLOGS))
        for l in range(n_lanes)
    ]
    states = [
        IntersectionState(draw(st.integers(0, n - 1)), draw(st.integers(0, 12)))
        for n in counts
    ]
    return topo, backlog, states


@settings(max_examples=200, deadline=None)
@given(
    case=_level3_case(),
    alpha=st.sampled_from((0.0, 0.25, 1.5)),
    min_green=st.sampled_from((0, 3)),
)
def test_adaptive_kernel_matches_scalar_oracle(case, alpha, min_green):
    topo, backlog, states = case
    want = _oracle_adaptive(topo, backlog, states, alpha, min_green)
    got = AdaptiveSelector(alpha, min_green).select(topo, backlog, Level3State.of(states))
    assert list(got) == want
    # the one-node coordination_priority runs the same kernel
    for node in topo.intersections:
        prio = [coordination_priority(node, ph, states) for ph in range(len(node.phases))]
        assert prio == _oracle_priorities(node, states)


@settings(max_examples=100, deadline=None)
@given(case=_level3_case(), split=st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_fixed_time_kernel_matches_scalar_oracle(case, split):
    topo, _, states = case
    given_states = Level3State.of(states)
    try:
        want = _oracle_fixed(split, topo, states)
    except SimulationError as exc:
        with pytest.raises(SimulationError, match=str(exc)):
            FixedTimeSelector(split).select(topo, [], given_states)
        return
    got = FixedTimeSelector(split).select(topo, [], given_states)
    assert list(got) == want
    assert list(given_states) == states
    # when every node holds, the incumbent phase array is passed on
    holds = want == [IntersectionState(s.pi, s.tau + 1) for s in states]
    assert (got.pi is given_states.pi) == holds
    # green times of 2 and more hold every node at tau 0
    longer = [g + 2 for g in split]
    fresh = [IntersectionState(s.pi, 0) for s in states]
    given_states = Level3State.of(fresh)
    got = FixedTimeSelector(longer).select(topo, [], given_states)
    assert list(got) == _oracle_fixed(longer, topo, fresh)
    assert got.pi is given_states.pi
    assert list(given_states) == fresh
