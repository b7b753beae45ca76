"""Engine loop: stage order, stop-delay accounting, traces, full-run checks."""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import replace

import pytest

from hcasim import (
    ConfigError,
    IntersectionState,
    MetricsRecord,
    SimConfig,
    Simulation,
    Vehicle,
    arterial_config,
    count_stopped,
    grid_config,
    run,
    trace_columns,
)
from netgen import random_config, random_topology
from reference import RefSim

from conftest import cross_topology, state_with


# --- count_stopped ----------------------------------------------------------


def test_count_stopped_network_wide(cross):
    state = state_with(cross, (0, 2, 0), (0, 5, 1), (1, 0, 0), (2, 3, 0))
    assert count_stopped(state) == 3


def test_count_stopped_window_restricts_to_lane_tail(cross):
    # lanes are 10 cells; window 3 keeps cells 7..9 only
    state = state_with(cross, (0, 2, 0), (0, 8, 0), (1, 9, 0), (2, 6, 0))
    assert count_stopped(state, window=3) == 2


def test_count_stopped_excludes_listed_ids(cross):
    state = state_with(cross, (0, 2, 0), (0, 5, 0))
    ids = [v.id for v in state.vehicles()]
    assert count_stopped(state, exclude_ids=frozenset(ids[:1])) == 1


# --- construction-time validation -------------------------------------------


def test_simulation_rejects_invalid_topology(cross):
    bad = SimConfig(cross)
    object.__setattr__(bad, "topology", None)
    with pytest.raises((ConfigError, TypeError, AttributeError)):
        Simulation(bad)


def test_fixed_time_split_must_cover_some_phase(cross):
    # split (0, 0, 5): a 2-phase node only ever sees entries 0 and 1, both zero
    cfg = SimConfig(cross, strategy="fixed_time", fixed_time_split=(0, 0, 5))
    with pytest.raises(ConfigError, match="every phase at zero"):
        Simulation(cfg)


# --- stage ordering ----------------------------------------------------------


def test_backlog_reflects_post_move_positions(cross):
    # a lone vehicle moves before aggregation, so occupancy still counts it
    # and the signal decision sees the fresh backlog
    cfg = SimConfig(cross, q=0.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    sim.state.lane_vehicles[1].append(Vehicle(0, 1, 0, 0))
    sim.step()
    assert sim.occupancy == [0, 1, 0, 0]
    # lane 1 pressure 1 beats lane 0 pressure 0: phase 1 activates this step
    assert sim.node_states == [IntersectionState(1, 0)]
    assert sim.gamma == [0, 1, 1, 1]


def test_signals_apply_one_step_later(cross):
    # the vehicle reaches the stop line under the old red, halts, and only
    # crosses after the controller has flipped the phase
    cfg = SimConfig(cross, q=0.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    assert sim.gamma == [1, 0, 1, 1]  # phase 0 active at t=0
    sim.state.lane_vehicles[1].append(Vehicle(0, 1, 8, 0))
    sim.step()
    # moved under red: 8 -> 9 is allowed (distance to line lets it advance)
    assert [v.cell for v in sim.state.lane_vehicles[1]] == [9]
    assert sim.gamma == [0, 1, 1, 1]
    sim.step()
    # now green: crosses onto exit lane 3
    assert sim.state.lane_vehicles[1] == []
    assert [v.lane for v in sim.state.vehicles()] == [3]


def test_fresh_injections_do_not_count_as_stopped(cross):
    cfg = SimConfig(cross, q=1.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    sim.step()
    # both entries placed a vehicle at speed 0 this step; neither counts yet
    assert sim.state.vehicle_count == 2
    assert sim.total_stop_delay == 0


def test_stop_delay_accumulates_standing_vehicles(cross):
    cfg = SimConfig(cross, q=0.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    # parked at the stop line of the red lane 1 (phase 0 is active)
    sim.state.lane_vehicles[1].append(Vehicle(0, 1, 9, 0))
    sim.step()
    # the controller flips to phase 1 at the end of the step, but the vehicle
    # spent this step standing under red
    assert sim.total_stop_delay == 1


# --- metrics ------------------------------------------------------------------


def test_metrics_record_fields(cross):
    cfg = SimConfig(cross, q=0.2, horizon=50, seed=9)
    rec = run(cfg)
    assert isinstance(rec, MetricsRecord)
    assert rec.horizon == 50
    assert rec.seed == 9
    assert rec.vehicles_injected == rec.vehicles_removed + rec.vehicles_in_network
    assert rec.total_stop_delay >= 0
    assert len(rec.config_digest) == 16


def test_zero_demand_runs_empty(cross):
    rec = run(SimConfig(cross, q=0.0, horizon=100))
    assert rec.vehicles_injected == 0
    assert rec.total_stop_delay == 0
    assert rec.vehicles_in_network == 0


def test_run_is_deterministic(cross):
    cfg = SimConfig(cross, q=0.3, horizon=200, seed=77)
    assert run(cfg) == run(cfg)


def test_seed_changes_outcome(cross):
    base = SimConfig(cross, q=0.3, horizon=300, seed=1)
    other = SimConfig(cross, q=0.3, horizon=300, seed=2)
    a, b = run(base), run(other)
    assert a.config_digest == b.config_digest
    assert (a.vehicles_injected, a.total_stop_delay) != (
        b.vehicles_injected,
        b.total_stop_delay,
    )


# --- trace output -------------------------------------------------------------


def test_trace_shape_and_totals(cross):
    cfg = SimConfig(cross, q=0.3, horizon=60, seed=3)
    buf = io.StringIO()
    rec = run(cfg, trace=buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert tuple(rows[0]) == trace_columns(cross)
    # 1 step + 1 pi + 4 lanes * 3 series + 1 stopped
    assert len(rows[0]) == 1 + 1 + 4 * 3 + 1
    assert len(rows) == 1 + 60
    stopped_col = rows[0].index("stopped")
    assert sum(int(r[stopped_col]) for r in rows[1:]) == rec.total_stop_delay
    steps = [int(r[0]) for r in rows[1:]]
    assert steps == list(range(1, 61))


def test_trace_bytes_are_reproducible(tmp_path):
    cfg = arterial_config(intersections=2, q=0.15, horizon=120, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(cfg, trace=str(p1))
    run(cfg, trace=str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# --- agreement with an independent reimplementation ---------------------------


def _ref_kwargs(cfg: SimConfig) -> dict:
    return dict(
        v_max=cfg.v_max,
        p=cfg.p,
        alpha=cfg.alpha,
        q=cfg.q,
        intensities=cfg.entry_intensities,
        seed=cfg.seed,
        strategy=cfg.strategy,
        min_green=cfg.min_green,
        stop_window=cfg.stop_window,
        fixed_split=cfg.fixed_time_split,
    )


def _lockstep(cfg: SimConfig, steps: int) -> None:
    sim = Simulation(cfg, check_invariants=True)
    ref = RefSim(cfg.topology, **_ref_kwargs(cfg))
    for t in range(steps):
        sim.step()
        ref.step()
        lanes = ref.lane_snapshot()
        for li, lane in enumerate(cfg.topology.lanes):
            # the reference stores an exit lane's last cell on each vehicle
            dest = lane.length - 1 if lane.downstream is None else None
            got = tuple(
                (v.cell, v.id, v.speed, dest) for v in sim.state.lane_vehicles[li]
            )
            assert got == lanes[li], f"lane {li} diverged at step {t}"
        assert [(s.pi, s.tau) for s in sim.node_states] == ref.node_snapshot(), (
            f"controller diverged at step {t}"
        )
        assert list(sim.gamma) == list(ref.gamma), f"signals diverged at step {t}"
        assert sim.total_stop_delay == ref.total_delay, f"delay diverged at {t}"


@pytest.mark.parametrize("seed", [11, 23, 47, 61, 89, 97])
def test_lockstep_with_reference_on_random_networks(seed):
    _lockstep(random_config(seed), 200)


def test_lockstep_with_reference_on_grid():
    _lockstep(grid_config(q=0.1, horizon=200, seed=31), 200)


def test_lockstep_with_reference_on_arterial():
    _lockstep(arterial_config(q=0.15, horizon=200, seed=13), 200)


@pytest.mark.parametrize("seed", [11, 47, 89, 97])
def test_lockstep_with_reference_under_min_green_and_stop_window(seed):
    # random_config never sets either knob; draw them from a stream of their own
    rng = random.Random(seed)
    cfg = replace(
        random_config(seed), min_green=rng.randint(1, 6), stop_window=rng.randint(1, 8)
    )
    _lockstep(cfg, 200)


def test_lockstep_with_reference_on_grid_with_min_green_and_stop_window():
    _lockstep(grid_config(q=0.15, horizon=200, seed=19, min_green=4, stop_window=10), 200)


def test_lockstep_with_reference_on_arterial_with_min_green_and_stop_window():
    _lockstep(
        arterial_config(q=0.2, horizon=200, seed=29, min_green=5, stop_window=6), 200
    )


def test_known_run_regression():
    # pinned end-to-end totals; digest intentionally unpinned (it may change
    # with config schema evolution, the physics must not)
    rec = run(grid_config(q=0.05, alpha=0.0, strategy="backpressure", seed=12345))
    assert rec.total_stop_delay == 13297
    assert rec.vehicles_injected == 1425
    assert rec.vehicles_removed == 1388
    assert rec.vehicles_in_network == 37


def test_invariant_checking_runs_clean():
    cfg = grid_config(q=0.2, horizon=150, seed=8)
    run(cfg, check_invariants=True)


# --- pinned behaviour -----------------------------------------------------------
# Whole records and trace bytes, fixed before the level-2/3 tables were
# compiled.  A change to any of them is a change to the simulated dynamics.


@pytest.mark.parametrize(
    "make,expect",
    [
        (
            lambda: grid_config(q=0.1, alpha=1.0, seed=7, strategy="hca"),
            MetricsRecord(28029, 2893, 2798, 95, 3600, 7, "0c89ff6f62316db5"),
        ),
        (
            lambda: arterial_config(
                q=0.15, alpha=1.0, seed=3, strategy="hca", min_green=5, stop_window=10
            ),
            MetricsRecord(5851, 812, 788, 24, 3600, 3, "f546db4530d3484e"),
        ),
        (
            # netgen seed 17: four nodes, five lanes with two-way exit splits
            lambda: SimConfig(random_topology(17), q=0.3, alpha=1.0, seed=17, horizon=2000),
            MetricsRecord(31670, 3538, 3485, 53, 2000, 17, "5006a4b4291af459"),
        ),
    ],
    ids=["grid4-hca", "arterial-min-green-window", "netgen17-splits"],
)
def test_pinned_records(make, expect):
    assert run(make()) == expect


def test_pinned_trace_digest(tmp_path):
    path = tmp_path / "trace.csv"
    run(grid_config(q=0.15, alpha=1.0, seed=5, horizon=200), trace=str(path))
    data = path.read_bytes()
    assert len(data) == 113722
    assert hashlib.sha256(data).hexdigest() == (
        "c5f1111b3f7b844d6fe048790fb43b8920da70a17e5a37772dcf07faf971531f"
    )
