"""Vehicle rule primitives and the synchronous lane sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcasim import (
    InjectionProcess,
    LaneDescriptor,
    Level1State,
    NetworkTopology,
    RngStream,
    SimulationError,
    accelerate,
    advance_all,
    brake,
    check_level1,
    pick_exit,
    randomize,
)
from conftest import cross_topology, fork_topology, merge_topology, state_with
from netgen import random_config

ALL_GREEN = [1, 1, 1, 1]
GREEN0 = [1, 0, 1, 1]
RED = [0, 0, 1, 1]


def _vehicles(state, lane):
    return [(v.cell, v.speed, v.id) for v in state.lane_vehicles[lane]]


# -- rule primitives ---------------------------------------------------------


@pytest.mark.parametrize("v, v_max, want", [(0, 2, 1), (1, 2, 2), (2, 2, 2), (5, 3, 3)])
def test_accelerate(v, v_max, want):
    assert accelerate(v, v_max) == want


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
    assert brake(v, d, s, gamma) == want


def test_randomize():
    assert randomize(2, 0.5, 0.49) == 1
    assert randomize(2, 0.5, 0.5) == 2
    assert randomize(0, 1.0, 0.0) == 0  # standing vehicles stay at zero
    assert randomize(1, 0.0, 0.999) == 1


def test_pick_exit_inverse_cdf():
    exits = ((2, 0.3), (4, 0.7))
    assert pick_exit(exits, 0.0) == 2
    assert pick_exit(exits, 0.29) == 2
    assert pick_exit(exits, 0.3) == 4
    assert pick_exit(exits, 0.99) == 4
    assert pick_exit(exits, 1.0) == 4  # fallback: last exit


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
    advance_all(state, cross, ALL_GREEN, 2, 0.0, RngStream(0))
    assert _vehicles(state, 0) == [(4, 0, 1), (7, 2, 0)]


def test_red_approach_and_halt(cross):
    state = state_with(cross, (0, 7, 2))
    advance_all(state, cross, RED, 2, 0.0, RngStream(0))
    assert _vehicles(state, 0) == [(9, 2, 0)]
    advance_all(state, cross, RED, 2, 0.0, RngStream(0))
    assert _vehicles(state, 0) == [(9, 0, 0)]


def test_green_crossing_maps_cells_and_speed(cross):
    # from cell 9 at speed 1: accelerate to 2, cross the stop line at 10,
    # land on successor cell 1 having moved 2 cells
    state = state_with(cross, (0, 9, 1))
    advance_all(state, cross, ALL_GREEN, 2, 0.0, RngStream(0))
    assert _vehicles(state, 2) == [(1, 2, 0)]


def test_crossing_brakes_against_successor_queue(cross):
    blocker = (2, 0, 0)
    state = state_with(cross, blocker, (0, 9, 2))
    advance_all(state, cross, GREEN0, 2, 0.0, RngStream(0))
    # successor's first cell occupied: the crosser must wait at the line
    assert _vehicles(state, 0) == [(9, 0, 1)]
    assert _vehicles(state, 2) == [(1, 1, 0)]  # the blocker itself drove on


def test_crossing_lands_behind_successor_tail(cross):
    state = state_with(cross, (2, 1, 0), (0, 9, 2))
    advance_all(state, cross, GREEN0, 2, 0.0, RngStream(0))
    assert _vehicles(state, 0) == []
    # crosser enters cell 0 (one behind the blocker's old cell 1); the
    # blocker itself pulls away to cell 2 in the same synchronous step
    assert _vehicles(state, 2) == [(0, 1, 1), (2, 1, 0)]


def test_transfer_conflict_lower_lane_wins(merge):
    state = state_with(merge, (0, 9, 2), (1, 9, 2))
    advance_all(state, merge, [1, 1, 1, 0, 1], 2, 0.0, RngStream(0))
    # both aim at cell 1 of lane 2; lane 0's vehicle wins, lane 1's falls back
    assert _vehicles(state, 2) == [(0, 1, 1), (1, 2, 0)]


def test_transfer_conflict_squeeze_out(merge):
    state = state_with(merge, (0, 9, 0), (1, 9, 0))
    advance_all(state, merge, [1, 1, 1, 0, 1], 2, 0.0, RngStream(0))
    # both can only reach cell 0; the loser waits in place at speed 0
    assert _vehicles(state, 2) == [(0, 1, 0)]
    assert _vehicles(state, 1) == [(9, 0, 1)]


def test_exit_lane_removal(cross):
    state = state_with(cross, (2, 9, 1))
    removed = advance_all(state, cross, ALL_GREEN, 2, 0.0, RngStream(0))
    assert [v.id for v in removed] == [0]
    assert state.vehicle_count == 0


def test_exit_lane_is_open_road(cross):
    # no stop line on the way out: full speed regardless of signals
    state = state_with(cross, (2, 3, 2))
    advance_all(state, cross, RED, 2, 0.0, RngStream(0))
    assert _vehicles(state, 2) == [(5, 2, 0)]


def test_certain_dawdle_slows_by_one(cross):
    state = state_with(cross, (0, 0, 2))
    advance_all(state, cross, ALL_GREEN, 2, 1.0, RngStream(0))
    assert _vehicles(state, 0) == [(1, 1, 0)]


def test_dawdle_draw_consumed_even_when_standing(cross):
    # same vehicle count, different dynamics: the dawdle stream must end up
    # at the same position, so the next draws agree
    rng_a, rng_b = RngStream(7), RngStream(7)
    moving = state_with(cross, (0, 0, 2), (0, 3, 2), (1, 0, 2))
    standing = state_with(cross, (0, 9, 0), (0, 8, 0), (1, 9, 0))
    advance_all(moving, cross, ALL_GREEN, 2, 0.2, rng_a)
    advance_all(standing, cross, RED, 2, 0.2, rng_b)
    assert rng_a.dawdle.random() == rng_b.dawdle.random()


def test_turn_draw_only_for_multi_exit_front_vehicle(fork):
    gamma5 = [1, 1, 1, 1, 1]
    fresh = RngStream(3)
    first, second = fresh.turn.random(), fresh.turn.random()

    # single-exit crossing consumes no turn draw
    cross_topo = cross_topology()
    rng = RngStream(3)
    state = state_with(cross_topo, (0, 9, 2))
    advance_all(state, cross_topo, ALL_GREEN, 2, 0.0, rng)
    assert rng.turn.random() == first

    # two-exit crossing consumes exactly one
    rng = RngStream(3)
    state = state_with(fork, (0, 9, 2))
    advance_all(state, fork, gamma5, 2, 0.0, rng)
    assert rng.turn.random() == second


def test_turn_draws_follow_documented_policy(fork):
    # draw-for-draw agreement with a hand-tracked turn stream
    gamma5 = [1, 1, 1, 1, 1]
    rng = RngStream(11)
    mirror = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11).spawn(3)[2]))
    state = state_with(fork, (0, 9, 2), (1, 9, 2))
    advance_all(state, fork, gamma5, 2, 0.0, rng)
    u = mirror.random()  # only lane 0's front vehicle has two exits
    expect = 2 if u < 0.3 else 4
    lanes_used = [li for li in (2, 4) if state.lane_vehicles[li]]
    assert lanes_used == [expect]
    assert rng.turn.random() == mirror.random()


def test_committed_turn_draw_stays_consumed_when_dawdled(fork):
    # p=1: the front vehicle commits a crossing at the accelerated speed,
    # then dawdles back short of the stop line and stays put
    gamma5 = [1, 1, 1, 1, 1]
    rng = RngStream(5)
    state = state_with(fork, (0, 9, 0))
    advance_all(state, fork, gamma5, 2, 1.0, rng)
    assert _vehicles(state, 0) == [(9, 0, 0)]
    mirror = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5).spawn(3)[2]))
    mirror.random()  # the committed draw
    assert rng.turn.random() == mirror.random()


def test_sweep_raises_on_corrupted_exit_vehicle(cross):
    # a leader parked past the end of a 10-cell lane (deliberately corrupt)
    # leaves its follower room to run off the lane under red, where no exit
    # was committed
    state = state_with(cross, (0, 9, 2), (0, 15, 0))
    with pytest.raises(SimulationError, match="without a committed exit"):
        advance_all(state, cross, RED, 2, 0.0, RngStream(0))


# -- injection ----------------------------------------------------------------


def test_injection_places_at_entry_at_speed_zero(cross):
    inj = InjectionProcess(cross, (1.0, 0.0))
    state = Level1State.empty(cross)
    placed = inj.inject(state, RngStream(0))
    assert placed == [0]
    assert _vehicles(state, 0) == [(0, 0, 0)]
    assert inj.total_injected == 1


def test_injection_backlog_waits_for_free_cell(cross):
    inj = InjectionProcess(cross, (1.0, 0.0))
    state = state_with(cross, (0, 0, 0))
    state.lane_vehicles[0][0].id = 99
    assert inj.inject(state, RngStream(0)) == []
    assert inj.total_pending == 1
    assert inj.total_injected == 0
    # cell frees up: exactly one pending arrival is placed per step
    state = Level1State.empty(cross)
    assert inj.inject(state, RngStream(1)) == [0]
    assert inj.total_pending == 1  # this step drew another arrival


def test_injection_one_draw_per_entry_per_step(cross):
    # offered demand is controller-independent: stream position depends only
    # on the number of steps, never on placements
    inj_full = InjectionProcess(cross, (1.0, 1.0))
    inj_none = InjectionProcess(cross, (0.0, 0.0))
    rng_a, rng_b = RngStream(9), RngStream(9)
    state_a, state_b = Level1State.empty(cross), Level1State.empty(cross)
    for _ in range(5):
        inj_full.inject(state_a, rng_a)
        inj_none.inject(state_b, rng_b)
    assert rng_a.injection.random() == rng_b.injection.random()
    assert inj_none.total_injected == 0 and inj_none.total_pending == 0


def test_injection_dest_on_exit_entry():
    # an arrival at an entry on a network-exit lane leaves past its last cell
    lanes = (LaneDescriptor(6, None, None),)
    topo = NetworkTopology(lanes, (), ((0, 0),))
    inj = InjectionProcess(topo, (1.0,))
    state = Level1State.empty(topo)
    inj.inject(state, RngStream(0))
    rng = RngStream(0)
    removed = [advance_all(state, topo, [0], 2, 0.0, rng) for _ in range(4)]
    assert [[v.id for v in r] for r in removed] == [[], [], [], [0]]


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
        on_road = {v.id for v in sim.state.vehicles()}
        assert len(on_road) == sim.state.vehicle_count
        ids_seen |= on_road
    assert sim.injector.total_injected == sim.removed_total + sim.state.vehicle_count
    assert ids_seen <= set(range(sim.injector.total_injected))
