"""Engine loop: stage order, stop-delay accounting, traces, full-run checks."""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
from dataclasses import fields, replace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import hcasim.engine
from hcasim import (
    ConfigError,
    LaneDescriptor,
    MetricsRecord,
    NetworkTopology,
    SimConfig,
    Simulation,
    SimulationError,
    arterial_config,
    grid_config,
    run,
    validate_topology,
)
from hcasim.engine import count_stopped, run_batch, trace_columns
from hcasim.lanes import apply_signal_indications, compute_backlog, compute_occupancy
from hcasim.model import IntersectionState, Level1Arrays, Level3State, replicate
from hcasim.vehicles import advance_all
from netgen import random_config, random_topology
from reference import RefSim

from conftest import (
    alone_and_in_batch,
    cross_topology,
    lanes_of,
    merge_topology,
    mixed_phase_topology,
    mixed_with,
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
    state = Level1Arrays(replicate(cross, 2), replicas=2)
    state.data = np.array([[0, 4, 5, 6], [2, 2, 4, 9], [0, 0, 0, 1], [0, 0, 1, 2]])
    assert count_stopped(state, first_new_id=[1, 1]).tolist() == [1, 1]
    assert count_stopped(state, first_new_id=[0, 2]).tolist() == [0, 2]


def test_count_stopped_defaults_alone_and_in_batch():
    # without first_new_id every standing vehicle counts; one id serves every copy
    for form, sim, _ in alone_and_in_batch(grid_config(q=0.3, horizon=40, seed=2)):
        for _ in range(40):
            sim.step()
        lane, _, speed, vid = sim.state.data
        standing = sim.state.per_replica(lane[speed == 0])
        assert standing.sum() > 0, form
        assert count_stopped(sim.state).tolist() == standing.tolist(), form
        early = sim.state.per_replica(lane[(speed == 0) & (vid < 5)])
        assert count_stopped(sim.state, first_new_id=5).tolist() == early.tolist(), form


# --- construction-time validation -------------------------------------------


def test_simulation_rejects_invalid_topology(cross):
    bad = SimConfig(cross)
    object.__setattr__(bad, "topology", None)
    with pytest.raises((ConfigError, TypeError, AttributeError)):
        Simulation(bad)


def test_empty_seed_list_is_rejected_before_any_state(cross):
    bad = SimConfig(cross)
    object.__setattr__(bad, "topology", None)  # not validated: seeds are checked first
    with pytest.raises(ValueError, match="seeds"):
        Simulation(bad, seeds=[])
    # so is a seed numpy's SeedSequence would refuse
    for seeds, message in (
        ([-1], "seeds[0]=-1: must be >= 0"),
        ([3, 1.5], "seeds[1]: 1.5 is not an integer"),
        (["7"], "seeds[0]: '7' is not an integer"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            Simulation(bad, seeds=seeds)
    Simulation(SimConfig(cross), seeds=[np.int64(0), np.uint8(5)])


def test_run_batch_rejects_an_empty_run_list(cross):
    # the diagnostic names the empty config list, not seeds never passed
    for empty in (lambda: run_batch([]), lambda: Simulation([])):
        with pytest.raises(ValueError, match="^config: empty sequence: must name at least one"):
            empty()


def test_a_config_per_copy_needs_a_seed_per_copy(cross):
    configs = [SimConfig(cross, seed=3), SimConfig(cross, q=0.2, seed=4)]
    assert Simulation(configs).seeds == (3, 4)
    with pytest.raises(ValueError, match="3 seeds for 2 configs"):
        Simulation(configs, seeds=[1, 2, 3])


# every copy of a batch that mixes demand, weight and adaptive strategy ends
# with the record of its own run alone, digest included
MIXED = {
    "grid": lambda: grid_config(horizon=150, seed=3),
    "arterial-side-demand": lambda: arterial_config(side_q=0.05, horizon=150, seed=5),
    "entry-intensities": lambda: SimConfig(
        cross_topology(), entry_intensities=(0.7, None), horizon=150, seed=8
    ),
    "min-green-stop-window": lambda: grid_config(
        horizon=150, seed=9, min_green=3, stop_window=5
    ),
}


@pytest.mark.parametrize("make", MIXED.values(), ids=MIXED)
def test_a_mixed_batch_gives_each_copy_the_record_of_its_run_alone(make):
    base = make()
    runs = [
        (replace(base, q=q, strategy=strategy, alpha=alpha), base.seed + k)
        for k, (q, strategy, alpha) in enumerate([
            (0.05, "backpressure", 1.0), (0.15, "hca", 1.0), (0.05, "hca", 0.0),
            (0.3, "hca", 2.5), (0.15, "backpressure", 0.0), (0.05, "hca", 1.0),
        ])
    ]
    alone = [run(replace(config, seed=seed)) for config, seed in runs]
    assert run_batch(runs) == alone
    assert len({rec.config_digest for rec in alone}) == 5


def test_a_fixed_time_batch_mixes_demand_but_no_adaptive_copy():
    base = arterial_config(strategy="fixed_time", fixed_time_split=(7, 3), horizon=120, seed=2)
    runs = [(base, 2), (replace(base, q=0.3, alpha=0.0), 3)]
    assert run_batch(runs) == [run(replace(config, seed=seed)) for config, seed in runs]
    for strategy in ("hca", "backpressure"):
        with pytest.raises(ConfigError, match=f"differ in strategy: fixed_time and {strategy}"):
            run_batch(runs + [(replace(base, strategy=strategy), 4)])


@pytest.mark.parametrize(
    "field, value",
    [
        ("topology", grid_config(roads_per_direction=2).topology),
        ("v_max", 3),
        ("p", 0.3),
        ("horizon", 40),
        ("min_green", 2),
        ("stop_window", 5),
        ("fixed_time_split", (4, 4)),
    ],
)
def test_copies_that_differ_in_a_shared_field_are_refused(field, value):
    base = grid_config(horizon=30)
    runs = [(base, 1), (replace(base, q=0.2), 2), (replace(base, **{field: value}), 3)]
    with pytest.raises(ConfigError, match=f"configs differ in {field}:"):
        run_batch(runs)
    with pytest.raises(ConfigError, match=f"configs differ in {field}:"):
        Simulation([config for config, _ in runs])


@st.composite
def _any_controller(draw):
    """A netgen or mixed-phase config under any strategy."""
    cfg = draw(
        st.one_of(
            st.integers(0, 10_000).map(lambda seed: random_config(seed, horizon=60)),
            st.just(SimConfig(mixed_phase_topology(), q=0.4, horizon=60)),
        )
    )
    strategy = draw(st.sampled_from(("hca", "backpressure", "fixed_time")))
    split = (draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return replace(
        cfg,
        strategy=strategy,
        alpha=draw(st.sampled_from((0.0, 1.0, 5.0))),
        min_green=draw(st.integers(0, 3)),
        fixed_time_split=split if strategy == "fixed_time" else None,
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=_any_controller())
def test_selectors_choose_phases_their_nodes_have(cfg):
    # no selector leaves the range the signal lookup checks; the engine
    # looks the bits up again only when the phase array changed, so every
    # move must still get the bits of the phases in force, also of phases
    # a caller put in between steps
    moves = []

    def recording(state, topology, gamma, *rest):
        moves.append(gamma.tolist())
        return advance_all(state, topology, gamma, *rest)

    with mock.patch.object(hcasim.engine, "advance_all", recording):
        for form, sim, _ in alone_and_in_batch(cfg):
            counts = [len(node.phases) for node in sim.topology.intersections]
            for t in range(cfg.horizon):
                if t == cfg.horizon // 2:
                    pi = sim.node_states.pi
                    sim.node_states = Level3State((pi + 1) % counts, np.zeros_like(pi))
                in_force = apply_signal_indications(sim.node_states.pi, sim.topology)
                sim.step()
                assert moves.pop() == in_force.tolist(), f"{form}: step {t}"
                pi = sim.node_states.pi
                assert all(0 <= k < n for k, n in zip(pi.tolist(), counts)), form


def _snapshot(sim: Simulation) -> tuple:
    streams = [
        getattr(rng, name).bit_generator.state
        for rng in sim.rngs
        for name in ("injection", "dawdle", "turn")
    ]
    injector = sim.injector
    data = (sim.state.data, injector.next_id, injector.pending, sim.total_stop_delay)
    return sim.t, [a.tolist() for a in data], streams


@pytest.mark.parametrize("strategy", ["hca", "backpressure", "fixed_time"])
def test_a_refused_phase_leaves_the_run_as_it_was(strategy):
    # phases and elapsed times set between steps are checked before the step
    # changes anything, so the run goes on as if they had never been set
    split = (20, 20) if strategy == "fixed_time" else None
    cfg = grid_config(q=0.3, horizon=12, seed=1, strategy=strategy, fixed_time_split=split)
    for form, sim, _ in alone_and_in_batch(cfg):
        untouched = Simulation(sim.configs, seeds=sim.seeds)
        for _ in range(5):
            sim.step()
            untouched.step()
        good = sim.node_states
        n = good.pi.size
        bad_phase = good.pi.copy()
        bad_phase[n - 1] = 2  # every grid node has two phases
        negative = good.tau.copy()
        negative[n - 2] = -3
        zeros = np.zeros(n, dtype=np.intp)
        for pi, tau, message in (
            (bad_phase, zeros, f"intersection {n - 1}: phase 2 out of range (it has 2)"),
            (good.pi[:1], zeros[:1], f"active phases: 1 given for {n} intersections"),
            (good.pi, negative, f"intersection {n - 2}: elapsed time=-3: must be >= 0"),
            (good.pi, np.zeros(n), "intersection 0: elapsed time: 0.0 is not an integer"),
        ):
            before = _snapshot(sim)
            sim.node_states = Level3State(pi, tau)
            with pytest.raises(ValueError, match=re.escape(message)):
                sim.step()
            assert _snapshot(sim) == before, form
        sim.node_states = good
        for _ in range(5, cfg.horizon):
            sim.step()
            untouched.step()
        assert sim.records() == untouched.records(), form


@pytest.mark.parametrize("strategy", ["hca", "backpressure", "fixed_time"])
def test_elapsed_times_of_another_shape_than_the_phases_are_refused(strategy):
    # a one-element tau used to broadcast under backpressure and fixed_time
    # and to raise a bare IndexError under hca
    split = (3, 2) if strategy == "fixed_time" else None
    cfg = grid_config(
        roads_per_direction=2, q=0.3, horizon=12, seed=5, strategy=strategy,
        fixed_time_split=split,
    )
    sim, untouched = Simulation(cfg), Simulation(cfg)
    for t in range(cfg.horizon):
        if t == 5:
            pi = sim.node_states.pi
            with pytest.raises(ValueError, match=re.escape("shape (1,) for phases of shape (4,)")):
                sim.node_states = Level3State(pi, np.zeros(1, dtype=np.intp))
        sim.step()
        untouched.step()
    assert sim.records() == untouched.records()


def test_states_that_are_not_arrays_are_refused():
    # a list had no shape to compare and raised a bare AttributeError
    with pytest.raises(TypeError, match="^phases and elapsed times: list and list given"):
        Level3State([0, 1], [0, 0])
    with pytest.raises(TypeError, match="^phases and elapsed times: ndarray and list given"):
        Level3State(np.zeros(2, dtype=np.intp), [0, 0])


def test_construction_leaves_topology_tables_uncompiled():
    # set-up time stays flat: the tables are compiled by the first step
    for form, sim, _ in alone_and_in_batch(grid_config(q=0.1, horizon=5)):
        assert "tables" not in vars(sim.topology), form
        sim.step()
        assert "tables" in vars(sim.topology), form


@pytest.mark.parametrize(
    "strategy,per_step", [("fixed_time", 0), ("hca", 1), ("backpressure", 1)]
)
def test_level2_runs_only_for_a_selector_that_reads_backlog(monkeypatch, strategy, per_step):
    # counted through the names the engine calls them by; occupancy and
    # backlog read afterwards are computed from the state as it is then
    calls = {"compute_occupancy": 0, "compute_backlog": 0}
    for name in calls:
        kernel = getattr(hcasim.engine, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(hcasim.engine, name, counted)
    split = (20, 20) if strategy == "fixed_time" else None
    cfg = arterial_config(q=0.3, horizon=60, seed=4, strategy=strategy, fixed_time_split=split)
    run(cfg)
    assert calls == dict.fromkeys(calls, 60 * per_step)
    for form, sim, _ in alone_and_in_batch(cfg):
        for t in range(cfg.horizon):
            calls.update(dict.fromkeys(calls, 0))
            sim.step()
            assert calls == dict.fromkeys(calls, per_step), f"{form}: step {t}"
            occupancy = compute_occupancy(sim.state)
            assert sim.occupancy.tolist() == occupancy.tolist(), f"{form}: step {t}"
            backlog = compute_backlog(occupancy, sim.topology)
            assert sim.backlog.tolist() == backlog.tolist(), f"{form}: step {t}"


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


def _lockstep(cfg: SimConfig, steps: int, seeds: range | None = None) -> None:
    """Step ``cfg`` and the reference together and compare every lane, node,
    signal and the delay after each step: ``cfg`` alone, as replica 1 of
    three seeds and as replica 1 of three configs, each copy of the last
    against a reference of its own; or with ``seeds``, one batch of them with
    a reference per seed."""
    nodes = cfg.topology.n_intersections
    if seeds is None:
        forms = [(form, sim, {r: cfg}) for form, sim, r in alone_and_in_batch(cfg, True)]
        form, mixed, _ = forms.pop()
        copies = zip(mixed_with(cfg), mixed.seeds)
        forms.append((form, mixed, {r: replace(c, seed=s) for r, (c, s) in enumerate(copies)}))
    else:
        batch = Simulation(cfg, True, seeds=seeds)
        forms = [("batch", batch, {r: replace(cfg, seed=s) for r, s in enumerate(seeds)})]
    for form, sim, replicas in forms:
        refs = {r: RefSim(c.topology, **_ref_kwargs(c)) for r, c in replicas.items()}
        for t in range(steps):
            sim.step()
            for r, ref in refs.items():
                ref.step()
                at = f"{form} replica {r}: at step {t}"
                lanes = ref.lane_snapshot()
                per_lane = lanes_of(sim.state, r)
                for li, lane in enumerate(cfg.topology.lanes):
                    # the reference stores an exit lane's last cell on each vehicle
                    dest = lane.length - 1 if lane.downstream is None else None
                    got = tuple((cell, vid, speed, dest) for cell, speed, vid in per_lane[li])
                    assert got == lanes[li], f"{at}, lane {li} diverged"
                node_states = list(sim.node_states)[r * nodes : (r + 1) * nodes]
                assert [(s.pi, s.tau) for s in node_states] == ref.node_snapshot(), (
                    f"{at}, the controller diverged"
                )
                gamma = replica_view(sim, r)[3]
                assert gamma.tolist() == list(ref.gamma), f"{at}, signals diverged"
                assert sim.total_stop_delay[r] == ref.total_delay, f"{at}, delay diverged"


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


@pytest.mark.parametrize("q", [0.3, 0.7, 1.0])
def test_lockstep_with_reference_with_a_shared_entry_cell_and_a_mid_lane_entry(q):
    # entries 0 and 2 share lane 0's first cell, of which the first places;
    # entry 3 places mid-lane, in the path of entry 0's vehicles
    topo = replace(cross_topology(), entry_points=((0, 0), (1, 0), (0, 0), (0, 3)))
    _lockstep(SimConfig(topo, q=q, horizon=300), 300, seeds=range(20))


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
    for _, sim, _ in alone_and_in_batch(grid_config(q=0.2, horizon=150, seed=8), True):
        for _ in range(150):
            sim.step()


def test_verify_names_a_node_with_a_bad_phase_or_elapsed_time():
    sim = Simulation(grid_config(q=0.2, horizon=5, seed=8), check_invariants=True)
    sim.step()
    pi, tau = sim.node_states.pi, sim.node_states.tau
    # every grid node has two phases; a negative phase is out of range too
    bad_pi = pi.copy()
    bad_pi[[3, 4]] = (2, -1)
    sim.node_states = Level3State(bad_pi, tau)
    with pytest.raises(SimulationError) as err:
        sim._verify()
    assert str(err.value) == (
        "step 1: intersection 3: active phase 2 out of range; "
        "intersection 4: active phase -1 out of range"
    )
    bad_tau = tau.copy()
    bad_tau[5] = -1
    sim.node_states = Level3State(pi, bad_tau)
    with pytest.raises(SimulationError) as err:
        sim._verify()
    assert str(err.value) == "step 1: intersection 5: negative elapsed time -1"
    sim.node_states = Level3State(pi, tau)
    sim._verify()


def test_ring_keeps_its_vehicles():
    # a closed network: no entry draws a vehicle and none leaves
    assert validate_topology(ring_topology()) == []
    sim = ring_simulation(60, horizon=200, seed=4)
    for _ in range(200):
        sim.step()
        assert sim.gamma[:2].tolist() == [1, 1]  # the ring never sees red
    (rec,) = sim.records()
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
    # alone, and as replica 1 of a batch of other seeds, demand and weights
    assert run(cfg) == expect
    seeds = (cfg.seed + 1, cfg.seed, cfg.seed + 2)
    assert run_batch(list(zip(mixed_with(cfg), seeds)))[1] == expect


def _trace_bytes(cfg: SimConfig, tmp_path) -> bytes:
    """The trace of ``cfg``, the same when it runs as replica 1 of a batch of 3."""
    path = tmp_path / "trace.csv"
    run(cfg, trace=str(path))
    alone = path.read_bytes()
    _, sim, r = list(alone_and_in_batch(cfg))[1]
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
