"""What the benchmark in ``perfbench/`` relies on from hcasim.

The span tracer wraps hcasim functions by name, reads ``alpha``, one
weight per node, off the adaptive selector and counts phase switches by
zipping ``select``'s ``states`` argument against its result after the
call; the compare workload rebinds ``run_many`` with a wrapper of a
fixed signature; the benchmark's modules import a few package names
directly.  A rename, a signature change or a selector that rewrote its
input would break ``perfbench/run.py --trace 1`` without any test of the
package noticing.  The tracer's ``lanes.signal_s`` spans the signal
lookup, which the step must reach through the engine's
``apply_signal_indications``.  The compare workload also expects one ``run_many`` call per cell, returning
that cell's records in seed order.  The tracer module is only loaded here,
never instrumented, because instrumenting rebinds hcasim globally.

The package's exports are checked here too, against the README's list.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import hcasim
import hcasim.cli
import hcasim.engine
import hcasim.experiments
import hcasim.signals
from hcasim import Simulation, compare_strategies, grid_config, run_many, sweep_alpha
from hcasim.model import IntersectionState, Level3State
from hcasim.signals import AdaptiveSelector, FixedTimeSelector

from conftest import alone_and_in_batch

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for modname, attr in _load_tracing().SPANNED:
        obj = importlib.import_module(f"hcasim.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"hcasim.{modname}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj)
    # counted by the tracer outside its spans
    assert callable(hcasim.signals.coordination_priority)
    assert callable(hcasim.experiments.ProcessPoolExecutor)


# Names the benchmark imports or calls: test_checks.py and workloads.py
# import from the package and from experiments, child.py calls through the
# package and the CLI.
IMPORTED = {
    hcasim: ("aggregate", "arterial_config", "grid_config", "run", "Simulation"),
    hcasim.experiments: (
        "SweepResult", "run_many", "summarize_comparison", "write_compare_csv"
    ),
    hcasim.cli: ("main",),
}


@pytest.mark.parametrize("module", list(IMPORTED), ids=lambda m: m.__name__)
def test_imported_names_resolve(module):
    for name in IMPORTED[module]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} is gone"


def test_advance_all_gets_the_state_first(monkeypatch):
    # the tracer counts vehicle updates as advance_all's args[0].vehicle_count
    seen = []
    advance_all = hcasim.engine.advance_all

    def recording(*args, **kwargs):
        seen.append(args[0].vehicle_count)
        return advance_all(*args, **kwargs)

    monkeypatch.setattr(hcasim.engine, "advance_all", recording)
    for _, sim, _ in alone_and_in_batch(grid_config(q=0.5, horizon=5, seed=1)):
        seen.clear()
        for _ in range(5):
            on_road, injected = sim.state.vehicle_count, sim.injector.next_id.sum()
            sim.step()
            # everything on the road after this step's arrivals moves once
            assert seen[-1] == on_road + sim.injector.next_id.sum() - injected
        assert len(seen) == 5 and seen[-1] > 0


@pytest.mark.parametrize("strategy", ["hca", "backpressure", "fixed_time"])
def test_signal_lookup_runs_once_per_adaptive_step_and_per_switch(monkeypatch, strategy):
    # the tracer's lanes.signal_s spans apply_signal_indications, counted
    # here through the name the engine calls it by
    calls = []
    lookup = hcasim.engine.apply_signal_indications

    def counted(*args):
        calls.append(args[0])
        return lookup(*args)

    monkeypatch.setattr(hcasim.engine, "apply_signal_indications", counted)
    split = (20, 20) if strategy == "fixed_time" else None
    cfg = grid_config(q=0.2, horizon=60, seed=1, strategy=strategy, fixed_time_split=split)
    for form, sim, _ in alone_and_in_batch(cfg):
        last, lookups = None, 0
        for t in range(cfg.horizon):
            pi = sim.node_states.pi
            calls.clear()
            sim.step()
            # a fixed-time plan's phases change only on the steps after a switch
            fresh = strategy != "fixed_time" or t == 0 or not np.array_equal(pi, last)
            assert [p is pi for p in calls] == [True] * fresh, f"{form}: step {t}"
            last, lookups = pi, lookups + fresh
        # the first step, then each 20-step green's switch
        assert lookups == (3 if strategy == "fixed_time" else cfg.horizon), form


def test_run_many_positional_signature():
    params = list(inspect.signature(run_many).parameters)
    assert params == ["config", "runs", "base_seed", "jobs", "on_result"]


def test_simulation_signature_and_its_one_seed_default():
    # child.py times Simulation(config); tests pass check_invariants second
    params = inspect.signature(Simulation.__init__).parameters
    assert list(params) == ["self", "config", "check_invariants", "seeds"]
    assert params["seeds"].kind is inspect.Parameter.KEYWORD_ONLY
    cfg = grid_config(q=0.2, horizon=30, seed=4)
    sims = [Simulation(cfg), Simulation(cfg, seeds=(cfg.seed,))]
    for sim in sims:
        for _ in range(cfg.horizon):
            sim.step()
    assert sims[0].records() == sims[1].records()


def test_traced_selection_signatures():
    # the tracer rebinds coordination_priority with a wrapper of these
    # parameters and reads select's states as args[3]
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(hcasim.signals.coordination_priority) == ["node", "phase", "neighbor_states"]
    for selector in (AdaptiveSelector, FixedTimeSelector):
        assert params(selector.select) == ["self", "topology", "backlog", "states"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_run_many_call_per_cell_with_records_in_seed_order(monkeypatch, jobs):
    # child.py's Capture keeps each cell's records from its run_many call
    calls = []
    run_many = hcasim.experiments.run_many

    def recording(config, runs, base_seed=None, jobs=1, on_result=None):
        records = run_many(config, runs, base_seed, jobs, on_result)
        calls.append((config.q, config.strategy, config.alpha, [r.seed for r in records]))
        return records

    monkeypatch.setattr(hcasim.experiments, "run_many", recording)
    cfg = grid_config(roads_per_direction=2, horizon=20, seed=40)
    compare_strategies(cfg, [0.1, 0.2], runs=3, scenario="grid", jobs=jobs)
    sweep_alpha(cfg, [0.0, 0.5], runs=3, scenario="grid", jobs=jobs)
    seeds = [40, 41, 42]
    assert calls == [
        (0.1, "backpressure", 1.0, seeds),
        (0.1, "hca", 1.0, seeds),
        (0.2, "backpressure", 1.0, seeds),
        (0.2, "hca", 1.0, seeds),
        (0.1, "hca", 0.0, seeds),
        (0.1, "hca", 0.5, seeds),
    ]


def _stepped_grid() -> Simulation:
    sim = Simulation(grid_config(q=0.2, horizon=40, seed=3))
    for _ in range(40):
        sim.step()
    return sim


@pytest.mark.parametrize(
    "selector", [AdaptiveSelector(alpha=1.0, min_green=2), FixedTimeSelector((3, 5))]
)
def test_select_returns_new_states_and_leaves_its_input(selector):
    sim = _stepped_grid()
    states = sim.node_states
    before = [(s.pi, s.tau) for s in states]
    out = selector.select(sim.topology, sim.backlog, states)
    assert out is not states
    assert out.pi.size == len(before)
    assert all(type(s.pi) is int and type(s.tau) is int for s in out)
    assert [(s.pi, s.tau) for s in states] == before
    # a step on which every node holds: tau 0 is below the minimum green and
    # every green time; the fixed-time plan then keeps the incumbent pi array
    fresh = Level3State(states.pi, np.zeros_like(states.tau))
    held = selector.select(sim.topology, sim.backlog, fresh)
    assert held is not fresh
    assert [(s.pi, s.tau) for s in held] == [(pi, 1) for pi, _ in before]
    assert [(s.pi, s.tau) for s in fresh] == [(pi, 0) for pi, _ in before]
    assert (held.pi is fresh.pi) == isinstance(selector, FixedTimeSelector)


def test_adaptive_selector_exposes_alpha():
    assert AdaptiveSelector(alpha=0.25).alpha == 0.25
    sim = Simulation(grid_config(alpha=1.5))
    assert sim.selector.alpha.tolist() == [1.5] * sim.topology.n_intersections


def test_node_states_iterate_to_intersection_states():
    states = list(_stepped_grid().node_states)
    assert len(states) == 16
    assert all(type(s) is IntersectionState for s in states)


def test_package_exports_exactly_the_documented_library():
    # the bulleted name list under the README's "Library use" heading
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n")[1]
    names_list = re.search(r"^- .*?(?=\n\n)", section, re.S | re.M).group(0)
    documented = set(re.findall(r"`(\w+)`", names_list))
    assert sorted(hcasim.__all__) == sorted(documented)
    assert all(hasattr(hcasim, name) for name in documented)
