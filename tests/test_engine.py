"""Engine loop: stage order, stop-delay accounting, traces, full-run checks."""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from hcasim import (
    ConfigError,
    LaneDescriptor,
    MetricsRecord,
    NetworkTopology,
    SimConfig,
    Simulation,
    arterial_config,
    grid_config,
    run,
    validate_topology,
)
from hcasim.engine import count_stopped, run_seeds, trace_columns
from hcasim.model import IntersectionState, Level1Arrays, replicate
from netgen import random_config, random_topology
from reference import RefSim

from conftest import (
    cross_topology,
    each_level1_form,
    lanes_of,
    merge_topology,
    mixed_phase_topology,
    replica_view,
    ring_simulation,
    ring_topology,
    state_with,
)


# --- count_stopped ----------------------------------------------------------


def test_count_stopped_network_wide(cross):
    state = state_with(cross, (0, 2, 0), (0, 5, 1), (1, 0, 0), (2, 3, 0))
    assert count_stopped(state).tolist() == [3]


def test_count_stopped_window_restricts_to_lane_tail(cross):
    # lanes are 10 cells; window 3 keeps cells 7..9 only
    state = state_with(cross, (0, 2, 0), (0, 8, 0), (1, 9, 0), (2, 6, 0))
    assert count_stopped(state, window=3).tolist() == [2]


def test_count_stopped_skips_ids_placed_this_step(cross):
    # state_with numbers vehicles 0, 1, 2 in argument order
    state = state_with(cross, (0, 2, 0), (0, 5, 0), (1, 4, 0))
    assert count_stopped(state, first_new_id=1).tolist() == [1]
    assert count_stopped(state, first_new_id=3).tolist() == [3]
    assert count_stopped(state, first_new_id=0).tolist() == [0]


def test_count_stopped_per_replica_with_its_own_new_ids(cross):
    # lanes 0-3 are replica 0, lanes 4-7 replica 1; ids count per replica
    state = Level1Arrays.empty(replicate(cross, 2), replicas=2)
    state.data = np.array([[0, 4, 5, 6], [2, 2, 4, 9], [0, 0, 0, 1], [0, 0, 1, 2]])
    assert count_stopped(state, first_new_id=[1, 1]).tolist() == [1, 1]
    assert count_stopped(state, first_new_id=[0, 2]).tolist() == [0, 2]


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


def test_construction_leaves_topology_tables_uncompiled():
    # set-up time stays flat: the tables are compiled by the first step
    for form, sim, _ in each_level1_form(grid_config(q=0.1, horizon=5)):
        assert "tables" not in vars(sim.topology), form
        sim.step()
        assert "tables" in vars(sim.topology), form


# --- stage ordering ----------------------------------------------------------


def test_backlog_reflects_post_move_positions(cross):
    # a lone vehicle moves before aggregation, so occupancy still counts it
    # and the signal decision sees the fresh backlog
    cfg = SimConfig(cross, q=0.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    sim.state = state_with(cross, (1, 0, 0))
    sim.step()
    assert sim.occupancy.tolist() == [0, 1, 0, 0]
    # lane 1 pressure 1 beats lane 0 pressure 0: phase 1 activates this step
    assert list(sim.node_states) == [IntersectionState(1, 0)]
    assert sim.gamma.tolist() == [0, 1, 1, 1]


def test_signals_apply_one_step_later(cross):
    # the vehicle reaches the stop line under the old red, halts, and only
    # crosses after the controller has flipped the phase
    cfg = SimConfig(cross, q=0.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    assert sim.gamma.tolist() == [1, 0, 1, 1]  # phase 0 active at t=0
    sim.state = state_with(cross, (1, 8, 0))
    sim.step()
    # moved under red: 8 -> 9 is allowed (distance to line lets it advance)
    assert [cell for cell, _, _ in lanes_of(sim.state)[1]] == [9]
    assert sim.gamma.tolist() == [0, 1, 1, 1]
    sim.step()
    # now green: crosses onto exit lane 3
    assert [len(lane) for lane in lanes_of(sim.state)] == [0, 0, 0, 1]


def test_fresh_injections_do_not_count_as_stopped(cross):
    cfg = SimConfig(cross, q=1.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    sim.step()
    # both entries placed a vehicle at speed 0 this step; neither counts yet
    assert sim.state.vehicle_count == 2
    assert sim.total_stop_delay.tolist() == [0]


def test_stop_delay_accumulates_standing_vehicles(cross):
    cfg = SimConfig(cross, q=0.0, p=0.0, strategy="backpressure")
    sim = Simulation(cfg)
    # parked at the stop line of the red lane 1 (phase 0 is active); it
    # entered before this step, so the injector has already issued its id
    sim.state = state_with(cross, (1, 9, 0))
    sim.injector.next_id[0] = 1
    sim.step()
    # the controller flips to phase 1 at the end of the step, but the vehicle
    # spent this step standing under red
    assert sim.total_stop_delay.tolist() == [1]


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
    # plain Python values only: a numpy scalar would compare equal but not repr equal
    assert [type(getattr(rec, f.name)) for f in fields(rec)] == [int] * 6 + [str]


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
    nodes = cfg.topology.n_intersections
    for form, sim, r in each_level1_form(cfg, check_invariants=True):
        ref = RefSim(cfg.topology, **_ref_kwargs(cfg))
        for t in range(steps):
            sim.step()
            ref.step()
            lanes = ref.lane_snapshot()
            per_lane = lanes_of(sim.state, r)
            for li, lane in enumerate(cfg.topology.lanes):
                # the reference stores an exit lane's last cell on each vehicle
                dest = lane.length - 1 if lane.downstream is None else None
                got = tuple((cell, vid, speed, dest) for cell, speed, vid in per_lane[li])
                assert got == lanes[li], f"{form}: lane {li} diverged at step {t}"
            node_states = list(sim.node_states)[r * nodes : (r + 1) * nodes]
            assert [(s.pi, s.tau) for s in node_states] == ref.node_snapshot(), (
                f"{form}: controller diverged at step {t}"
            )
            gamma = replica_view(sim, r)[3]
            assert gamma.tolist() == list(ref.gamma), f"{form}: signals diverged at step {t}"
            assert sim.total_stop_delay[r] == ref.total_delay, f"{form}: delay diverged at {t}"


@pytest.mark.parametrize("seed", [11, 23, 47, 61, 89, 97])
def test_lockstep_with_reference_on_random_networks(seed):
    _lockstep(random_config(seed), 200)


def test_lockstep_with_reference_on_grid():
    _lockstep(grid_config(q=0.1, horizon=200, seed=31), 200)


def test_lockstep_with_reference_on_arterial():
    _lockstep(arterial_config(q=0.15, horizon=200, seed=13), 200)


def test_lockstep_with_reference_on_merge_network():
    # both approaches of phase 0 feed lane 2, so crossings contend for its cells
    _lockstep(SimConfig(merge_topology(), q=0.5, p=0.1, seed=4, horizon=300), 300)


def test_lockstep_with_reference_with_entries_sharing_a_cell():
    # two entries feed lane 0's first cell; while it is taken both arrivals wait
    topo = replace(cross_topology(), entry_points=((0, 0), (1, 0), (0, 0)))
    _lockstep(SimConfig(topo, q=0.6, seed=6, horizon=200), 200)


@pytest.mark.parametrize("seed", [11, 47, 89, 97])
def test_lockstep_with_reference_under_min_green_and_stop_window(seed):
    # random_config never sets either knob; draw them from a stream of their own
    rng = random.Random(seed)
    cfg = replace(
        random_config(seed), min_green=rng.randint(1, 6), stop_window=rng.randint(1, 8)
    )
    _lockstep(cfg, 200)


def test_lockstep_with_reference_on_grid_with_min_green_and_stop_window():
    cfg = grid_config(q=0.15, horizon=200, seed=19, min_green=4, stop_window=10)
    _lockstep(cfg, 200)


def test_lockstep_with_reference_on_arterial_with_min_green_and_stop_window():
    cfg = arterial_config(q=0.2, horizon=200, seed=29, min_green=5, stop_window=6)
    _lockstep(cfg, 200)


def test_known_run_regression():
    # pinned end-to-end totals; digest intentionally unpinned (it may change
    # with config schema evolution, the physics must not)
    rec = run(grid_config(q=0.05, alpha=0.0, strategy="backpressure", seed=12345))
    assert rec.total_stop_delay == 13297
    assert rec.vehicles_injected == 1425
    assert rec.vehicles_removed == 1388
    assert rec.vehicles_in_network == 37


@pytest.mark.parametrize(
    "strategy,split", [("hca", None), ("backpressure", None), ("fixed_time", (3,))]
)
def test_network_without_intersections_runs(strategy, split):
    # one open lane and no node: level 3 has nothing to select
    topo = NetworkTopology((LaneDescriptor(10, None, None),), (), ((0, 0),))
    cfg = SimConfig(topo, horizon=20, strategy=strategy, fixed_time_split=split)
    rec = run(cfg, check_invariants=True)
    assert (rec.vehicles_injected, rec.vehicles_removed, rec.vehicles_in_network) == (3, 2, 1)


def test_invariant_checking_runs_clean():
    for _, sim, _ in each_level1_form(grid_config(q=0.2, horizon=150, seed=8), True):
        for _ in range(150):
            sim.step()


def test_ring_keeps_its_vehicles():
    # a closed network: no entry draws a vehicle and none leaves
    assert validate_topology(ring_topology()) == []
    sim = ring_simulation(60, horizon=200, seed=4)
    for _ in range(200):
        sim.step()
        assert sim.gamma[:2].tolist() == [1, 1]  # the ring never sees red
    rec = sim.metrics()
    assert (rec.vehicles_injected, rec.vehicles_removed, rec.vehicles_in_network) == (60, 0, 60)
    assert sorted(sim.state.data[3].tolist()) == list(range(60))


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
        (
            # netgen builds two-phase nodes only; this network mixes in three
            lambda: SimConfig(mixed_phase_topology(), q=0.25, alpha=0.5, seed=23, horizon=1500),
            MetricsRecord(36851, 2171, 2108, 63, 1500, 23, "95b6d0fdd31d3ad0"),
        ),
        (
            lambda: SimConfig(
                mixed_phase_topology(), q=0.25, alpha=0.5, seed=23, horizon=1500, min_green=3
            ),
            MetricsRecord(47146, 1989, 1927, 62, 1500, 23, "d529a4bcbe3c5cb4"),
        ),
    ],
    ids=[
        "grid4-hca",
        "arterial-min-green-window",
        "netgen17-splits",
        "mixed-phases",
        "mixed-phases-min-green",
    ],
)
def test_pinned_records(make, expect):
    _check_records(make(), expect)


@pytest.mark.parametrize(
    "make,expect",
    [
        (
            lambda: grid_config(
                roads_per_direction=16, q=0.1, alpha=1.0, seed=1, strategy="hca", horizon=1000
            ),
            MetricsRecord(80866, 3183, 1909, 1274, 1000, 1, "3483865f8033ede0"),
        ),
        (
            lambda: arterial_config(
                intersections=32, q=0.3, seed=1, strategy="fixed_time",
                fixed_time_split=(20, 20), horizon=3600,
            ),
            MetricsRecord(510288, 3300, 2878, 422, 3600, 1, "ef8bcf4f6da39ad3"),
        ),
    ],
    ids=["grid16-hca", "arterial32-fixed"],
)
def test_pinned_records_of_large_networks(make, expect):
    # pinned while level 1 ran as per-lane lists only
    _check_records(make(), expect)


def _check_records(cfg: SimConfig, expect: MetricsRecord) -> None:
    assert run(cfg) == expect
    seeds = (cfg.seed + 1, cfg.seed, cfg.seed + 2)
    assert run_seeds(cfg, seeds)[1] == expect


def _trace_bytes(cfg: SimConfig, tmp_path) -> bytes:
    """The trace of ``cfg``, the same when it runs as replica 1 of a batch of 3."""
    path = tmp_path / "trace.csv"
    run(cfg, trace=str(path))
    alone = path.read_bytes()
    _, sim, r = list(each_level1_form(cfg))[1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(trace_columns(cfg.topology))
    for _ in range(cfg.horizon):
        sim.step()
        pi, occupancy, backlog, gamma = replica_view(sim, r)
        writer.writerow(
            [sim.t, *pi.tolist(), *occupancy.tolist()]
            + [f"{d:.6f}" for d in backlog.tolist()]
            + [*gamma.tolist(), sim.last_stopped[r]]
        )
    assert out.getvalue().encode() == alone
    return alone


def test_pinned_trace_digest(tmp_path):
    cfg = grid_config(q=0.15, alpha=1.0, seed=5, horizon=200)
    data = _trace_bytes(cfg, tmp_path)
    assert len(data) == 113722
    assert hashlib.sha256(data).hexdigest() == (
        "c5f1111b3f7b844d6fe048790fb43b8920da70a17e5a37772dcf07faf971531f"
    )


def test_pinned_fixed_time_trace_digest(tmp_path):
    # pinned before level 3 ran as array kernels
    cfg = arterial_config(strategy="fixed_time", fixed_time_split=(20, 20), horizon=200)
    data = _trace_bytes(cfg, tmp_path)
    assert len(data) == 37109
    assert hashlib.sha256(data).hexdigest() == (
        "ccc7b779601b3a8953b8ecb1601abca93f3a9999e3db2f2b8d682dd04d44d17b"
    )
