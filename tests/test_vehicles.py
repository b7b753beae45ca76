"""The level-1 rule, the synchronous lane sweep and arrivals."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcasim import LaneDescriptor, NetworkTopology, SimulationError
from hcasim.model import Level1Arrays, check_level1
from hcasim.vehicles import InjectionProcess, RngStream, advance_all
from conftest import cross_topology, fork_topology, lanes_of, merge_topology, state_with
from netgen import random_config
from reference import RefSim

ALL_GREEN = np.array([1, 1, 1, 1])
GREEN0 = np.array([1, 0, 1, 1])
RED = np.array([0, 0, 1, 1])
MERGE_GREEN0 = np.array([1, 1, 1, 0, 1])
FORK_GREEN = np.array([1, 1, 1, 1, 1])


def _vehicles(state, lane):
    return lanes_of(state)[lane]


class _Uniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, k):
        assert k <= len(self.values), f"{k} draws asked, {len(self.values)} scripted"
        out, self.values = self.values[:k], self.values[k:]
        return np.array(out)


def _move(topo, vehicle, gamma, v_max=2, p=0.0, dawdle=0.5, turn=(), others=()):
    """Advance ``vehicle`` and ``others`` (lane, cell, speed) one step on
    scripted draws: the uniform ``dawdle`` for every vehicle and ``turn`` in
    order; returns the vehicle's new (lane, cell, speed)."""
    state = state_with(topo, vehicle, *others)
    stream = SimpleNamespace(
        injection=_Uniforms(()),
        dawdle=_Uniforms([dawdle] * state.vehicle_count),
        turn=_Uniforms(turn),
    )
    advance_all(state, topo, np.array(gamma), v_max, p, [stream])
    assert stream.dawdle.values == [] and stream.turn.values == []
    (at,) = (state.data[3] == 0).nonzero()[0]
    lane, cell, speed, _ = state.data[:, at].tolist()
    return lane, cell, speed


# -- the rule on single vehicles (p=0 unless stated) ---------------------------


@pytest.mark.parametrize("v, v_max, want", [(0, 2, 1), (1, 2, 2), (2, 2, 2), (5, 3, 3)])
def test_accelerate(v, v_max, want):
    # accelerates by one, capped at v_max, far behind its leader
    topo = cross_topology(v_max=v_max)
    assert _move(topo, (0, 0, v), ALL_GREEN, v_max, others=[(0, 9, 0)]) == (0, want, want)


@pytest.mark.parametrize(
    "v, d, s, gamma, want",
    [
        (2, 5, 5, 1, 2),   # free driving on green
        (2, 2, 5, 1, 1),   # leader one gap ahead
        (2, 1, 5, 1, 0),   # bumper to bumper
        (2, 5, 2, 0, 1),   # red: held short of the stop line
        (2, 5, 1, 0, 0),   # red at the line
        (2, 2, 1, 0, 0),   # red binds harder than the leader
        (1, 5, 5, 0, 1),   # red far away does not bind
    ],
)
def test_brake(v, d, s, gamma, want):
    # v is the accelerated speed, s the cells to the stop line, d to the
    # leader: on lane 0 when it is short of the line, otherwise the rear
    # vehicle of the exit lane, counted across the line
    cell = 10 - s
    leader = (0, cell + d, 0) if d < s else (2, d - s, 0)
    gamma4 = ALL_GREEN if gamma else RED
    got = _move(cross_topology(), (0, cell, v - 1), gamma4, others=[leader])
    assert got == (0, cell + want, want)


def test_randomize():
    # dawdling slows by one on a strict u < p, never below 0; before it the
    # vehicle's speed is 2 (free), 2, 0 (at a red line) and 1 (from rest)
    cross = cross_topology()
    assert _move(cross, (0, 0, 2), ALL_GREEN, p=0.5, dawdle=0.49) == (0, 1, 1)
    assert _move(cross, (0, 0, 2), ALL_GREEN, p=0.5, dawdle=0.5) == (0, 2, 2)
    assert _move(cross, (0, 9, 0), RED, p=1.0, dawdle=0.0) == (0, 9, 0)
    assert _move(cross, (0, 0, 0), ALL_GREEN, p=0.0, dawdle=0.999) == (0, 1, 1)


def test_turn_inverse_cdf(fork):
    # exits (2, 0.3), (4, 0.7): the first whose running weight sum exceeds
    # u, strictly; u = 1.0 exceeds none and falls back to the last
    for u, exit_lane in [(0.0, 2), (0.29, 2), (0.3, 4), (0.99, 4), (1.0, 4)]:
        assert _move(fork, (0, 9, 2), FORK_GREEN, turn=[u]) == (exit_lane, 1, 2), u


def test_rng_substreams_match_seed_sequence_spawn():
    rng = RngStream(42)
    inj, daw, turn = np.random.SeedSequence(42).spawn(3)
    assert rng.injection.random() == np.random.Generator(np.random.PCG64(inj)).random()
    assert rng.dawdle.random() == np.random.Generator(np.random.PCG64(daw)).random()
    assert rng.turn.random() == np.random.Generator(np.random.PCG64(turn)).random()


# -- advance_all micro-scenarios (p=0 unless stated) ---------------------------


def test_follower_brakes_against_leader_old_cell(cross):
    # leader moves away, but the follower still sees the pre-step gap
    state = state_with(cross, (0, 5, 2), (0, 4, 2))
    advance_all(state, cross, ALL_GREEN, 2, 0.0, [RngStream(0)])
    assert _vehicles(state, 0) == [(4, 0, 1), (7, 2, 0)]


def test_red_approach_and_halt(cross):
    state = state_with(cross, (0, 7, 2))
    advance_all(state, cross, RED, 2, 0.0, [RngStream(0)])
    assert _vehicles(state, 0) == [(9, 2, 0)]
    advance_all(state, cross, RED, 2, 0.0, [RngStream(0)])
    assert _vehicles(state, 0) == [(9, 0, 0)]


def test_green_crossing_maps_cells_and_speed(cross):
    # from cell 9 at speed 1: accelerate to 2, cross the stop line at 10,
    # land on successor cell 1 having moved 2 cells
    state = state_with(cross, (0, 9, 1))
    advance_all(state, cross, ALL_GREEN, 2, 0.0, [RngStream(0)])
    assert _vehicles(state, 2) == [(1, 2, 0)]


def test_crossing_brakes_against_successor_queue(cross):
    blocker = (2, 0, 0)
    state = state_with(cross, blocker, (0, 9, 2))
    advance_all(state, cross, GREEN0, 2, 0.0, [RngStream(0)])
    # successor's first cell occupied: the crosser must wait at the line
    assert _vehicles(state, 0) == [(9, 0, 1)]
    assert _vehicles(state, 2) == [(1, 1, 0)]  # the blocker itself drove on


def test_crossing_lands_behind_successor_tail(cross):
    state = state_with(cross, (2, 1, 0), (0, 9, 2))
    advance_all(state, cross, GREEN0, 2, 0.0, [RngStream(0)])
    assert _vehicles(state, 0) == []
    # crosser enters cell 0 (one behind the blocker's old cell 1); the
    # blocker itself pulls away to cell 2 in the same synchronous step
    assert _vehicles(state, 2) == [(0, 1, 1), (2, 1, 0)]


def test_transfer_conflict_lower_lane_wins(merge):
    state = state_with(merge, (0, 9, 2), (1, 9, 2))
    advance_all(state, merge, MERGE_GREEN0, 2, 0.0, [RngStream(0)])
    # both aim at cell 1 of lane 2; lane 0's vehicle wins, lane 1's falls back
    assert _vehicles(state, 2) == [(0, 1, 1), (1, 2, 0)]


def test_transfer_conflict_squeeze_out(merge):
    state = state_with(merge, (0, 9, 0), (1, 9, 0))
    advance_all(state, merge, MERGE_GREEN0, 2, 0.0, [RngStream(0)])
    # both can only reach cell 0; the loser waits in place at speed 0
    assert _vehicles(state, 2) == [(0, 1, 0)]
    assert _vehicles(state, 1) == [(9, 0, 1)]


def test_exit_lane_removal(cross):
    state = state_with(cross, (2, 9, 1))
    assert advance_all(state, cross, ALL_GREEN, 2, 0.0, [RngStream(0)]).tolist() == [1]
    assert state.vehicle_count == 0


def test_exit_lane_is_open_road(cross):
    # no stop line on the way out: full speed regardless of signals
    state = state_with(cross, (2, 3, 2))
    advance_all(state, cross, RED, 2, 0.0, [RngStream(0)])
    assert _vehicles(state, 2) == [(5, 2, 0)]


def test_certain_dawdle_slows_by_one(cross):
    state = state_with(cross, (0, 0, 2))
    advance_all(state, cross, ALL_GREEN, 2, 1.0, [RngStream(0)])
    assert _vehicles(state, 0) == [(1, 1, 0)]


def test_dawdle_draw_consumed_even_when_standing(cross):
    # same vehicle count, different dynamics: the dawdle stream must end up
    # at the same position, so the next draws agree
    rng_a, rng_b = RngStream(7), RngStream(7)
    moving = state_with(cross, (0, 0, 2), (0, 3, 2), (1, 0, 2))
    standing = state_with(cross, (0, 9, 0), (0, 8, 0), (1, 9, 0))
    advance_all(moving, cross, ALL_GREEN, 2, 0.2, [rng_a])
    advance_all(standing, cross, RED, 2, 0.2, [rng_b])
    assert rng_a.dawdle.random() == rng_b.dawdle.random()


def test_turn_draw_only_for_multi_exit_front_vehicle(fork):
    gamma5 = FORK_GREEN
    fresh = RngStream(3)
    first, second = fresh.turn.random(), fresh.turn.random()

    # single-exit crossing consumes no turn draw
    cross_topo = cross_topology()
    rng = RngStream(3)
    state = state_with(cross_topo, (0, 9, 2))
    advance_all(state, cross_topo, ALL_GREEN, 2, 0.0, [rng])
    assert rng.turn.random() == first

    # two-exit crossing consumes exactly one
    rng = RngStream(3)
    state = state_with(fork, (0, 9, 2))
    advance_all(state, fork, gamma5, 2, 0.0, [rng])
    assert rng.turn.random() == second


def test_turn_draws_follow_documented_policy(fork):
    # draw-for-draw agreement with a hand-tracked turn stream
    gamma5 = FORK_GREEN
    rng = RngStream(11)
    mirror = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11).spawn(3)[2]))
    state = state_with(fork, (0, 9, 2), (1, 9, 2))
    advance_all(state, fork, gamma5, 2, 0.0, [rng])
    u = mirror.random()  # only lane 0's front vehicle has two exits
    expect = 2 if u < 0.3 else 4
    lanes_used = [li for li in (2, 4) if _vehicles(state, li)]
    assert lanes_used == [expect]
    assert rng.turn.random() == mirror.random()


def test_committed_turn_draw_stays_consumed_when_dawdled(fork):
    # p=1: the front vehicle commits a crossing at the accelerated speed,
    # then dawdles back short of the stop line and stays put
    gamma5 = FORK_GREEN
    rng = RngStream(5)
    state = state_with(fork, (0, 9, 0))
    advance_all(state, fork, gamma5, 2, 1.0, [rng])
    assert _vehicles(state, 0) == [(9, 0, 0)]
    mirror = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(3)[2]))
    mirror.random()  # the committed draw
    assert rng.turn.random() == mirror.random()


def test_sweep_raises_on_corrupted_exit_vehicle(cross):
    # a leader parked past the end of a 10-cell lane (deliberately corrupt)
    # would leave its follower room to run off the lane under red, where no
    # exit was committed; the sweep refuses the state before moving anyone
    state = state_with(cross, (0, 9, 2), (0, 15, 0))
    with pytest.raises(SimulationError, match="past the end of lane 0"):
        advance_all(state, cross, RED, 2, 0.0, [RngStream(0)])


# -- injection ----------------------------------------------------------------


def test_injection_places_at_entry_at_speed_zero(cross):
    inj = InjectionProcess(cross, (1.0, 0.0))
    state = Level1Arrays(cross)
    inj.inject(state, [RngStream(0)])
    assert _vehicles(state, 0) == [(0, 0, 0)]
    assert inj.next_id.sum() == 1


def test_injection_backlog_waits_for_free_cell(cross):
    inj = InjectionProcess(cross, (1.0, 0.0))
    state = state_with(cross, (0, 0, 0))
    state.data[3, 0] = 99
    inj.inject(state, [RngStream(0)])
    assert inj.pending.sum() == 1
    assert inj.next_id.sum() == 0
    # cell frees up: exactly one pending arrival is placed per step
    state = Level1Arrays(cross)
    inj.inject(state, [RngStream(1)])
    assert inj.next_id.sum() == 1
    assert _vehicles(state, 0) == [(0, 0, 0)]
    assert inj.pending.sum() == 1  # this step drew another arrival


def test_injection_one_draw_per_entry_per_step(cross):
    # offered demand is controller-independent: stream position depends only
    # on the number of steps, never on placements
    inj_full = InjectionProcess(cross, (1.0, 1.0))
    inj_none = InjectionProcess(cross, (0.0, 0.0))
    rng_a, rng_b = RngStream(9), RngStream(9)
    state_a, state_b = Level1Arrays(cross), Level1Arrays(cross)
    for _ in range(5):
        inj_full.inject(state_a, [rng_a])
        inj_none.inject(state_b, [rng_b])
    assert rng_a.injection.random() == rng_b.injection.random()
    assert inj_none.next_id.sum() == 0 and inj_none.pending.sum() == 0


def test_injection_dest_on_exit_entry():
    # an arrival at an entry on a network-exit lane leaves past its last cell
    lanes = (LaneDescriptor(6, None, None),)
    topo = NetworkTopology(lanes, (), ((0, 0),))
    inj = InjectionProcess(topo, (1.0,))
    state = Level1Arrays(topo)
    inj.inject(state, [RngStream(0)])
    rng = RngStream(0)
    # a network-exit lane reads green under every phase
    removed = [advance_all(state, topo, np.array([1]), 2, 0.0, [rng])[0] for _ in range(4)]
    assert removed == [0, 0, 0, 1]


def test_injection_intensity_count_mismatch(cross):
    with pytest.raises(ValueError, match="intensities"):
        InjectionProcess(cross, (1.0,))


# -- whole-sweep properties ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2_000))
def test_generated_runs_keep_level1_invariants(seed):
    from hcasim import Simulation

    cfg = random_config(seed, horizon=60)
    sim = Simulation(cfg)
    ids_seen = set()
    for _ in range(60):
        sim.step()
        assert check_level1(sim.state, cfg.topology, cfg.v_max) == []
        on_road = set(sim.state.data[3].tolist())
        assert len(on_road) == sim.state.vehicle_count
        ids_seen |= on_road
    injected = sim.injector.next_id.sum()
    assert injected == sim.removed_total + sim.state.vehicle_count
    assert ids_seen <= set(range(injected))


@st.composite
def _placements(draw):
    """A topology, vehicles on distinct cells of each lane, and signal bits."""
    make = draw(st.sampled_from((cross_topology, fork_topology, merge_topology)))
    v_max = draw(st.integers(1, 3))
    topo = make(length=draw(st.integers(2, 8)), v_max=v_max)
    vehicles = []
    for li, lane in enumerate(topo.lanes):
        cells = draw(st.sets(st.integers(0, lane.length - 1)))
        vehicles += [(li, c, draw(st.integers(0, v_max))) for c in sorted(cells)]
    # network-exit lanes always read green
    gamma = [1 if lane.downstream is None else draw(st.integers(0, 1)) for lane in topo.lanes]
    return topo, v_max, vehicles, gamma


@settings(max_examples=300, deadline=None)
@given(_placements(), st.sampled_from((0.0, 0.3, 1.0)), st.integers(0, 2**32 - 1))
def test_array_form_advances_like_the_reference(placement, p, seed):
    topo, v_max, vehicles, gamma = placement
    state = state_with(topo, *vehicles)
    rng = RngStream(seed)
    removed = advance_all(state, topo, np.array(gamma), v_max, p, [rng])
    # the reference keeps an exit lane's last cell on each vehicle
    dest = [lane.length - 1 if lane.downstream is None else None for lane in topo.lanes]
    ref = RefSim(topo, v_max=v_max, p=p, seed=seed)
    for vid, (lane, cell, speed) in enumerate(vehicles):
        ref.occ[lane][cell] = [vid, speed, dest[lane]]
    ref.gamma = gamma
    ref._advance()
    assert removed.tolist() == [ref.removed_total]
    got = [
        tuple((cell, vid, speed, dest[li]) for cell, speed, vid in lane)
        for li, lane in enumerate(lanes_of(state))
    ]
    assert got == ref.lane_snapshot()
    assert check_level1(state, topo, v_max) == []
    # both took the same number of draws from every stream
    assert rng.dawdle.random() == ref.rng_daw.random()
    assert rng.turn.random() == ref.rng_turn.random()
