"""What the benchmark in ``perfbench/`` relies on from hcasim.

The span tracer wraps hcasim functions by name, reads ``alpha`` off the
adaptive selector and counts phase switches by zipping ``select``'s
``states`` argument against its result after the call; the compare
workload rebinds ``run_many`` with a wrapper of a fixed signature; the
benchmark's modules import a few package names directly.  A rename, a signature change or a selector that rewrote its input would
break ``perfbench/run.py --trace 1`` without any test of the package
noticing.  The compare workload also expects one ``run_many`` call per
cell, returning that cell's records in seed order.  The tracer module is
only loaded here, never instrumented, because instrumenting rebinds hcasim
globally.

The package's exports are checked here too, against the README's list.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import hcasim
import hcasim.cli
import hcasim.engine
import hcasim.experiments
import hcasim.signals
from hcasim import Simulation, compare_strategies, grid_config, run_many, sweep_alpha
from hcasim.model import IntersectionState
from hcasim.signals import AdaptiveSelector, FixedTimeSelector, controller_strategy

from conftest import each_level1_form

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
    for _, sim, _ in each_level1_form(grid_config(q=0.5, horizon=5, seed=1)):
        seen.clear()
        for _ in range(5):
            on_road, injected = sim.state.vehicle_count, sim.injector.next_id.sum()
            sim.step()
            # everything on the road after this step's arrivals moves once
            assert seen[-1] == on_road + sim.injector.next_id.sum() - injected
        assert len(seen) == 5 and seen[-1] > 0


def test_run_many_positional_signature():
    params = list(inspect.signature(run_many).parameters)
    assert params == ["config", "runs", "base_seed", "jobs", "on_result"]


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
    for states in (sim.node_states, list(sim.node_states)):
        before = [(s.pi, s.tau) for s in states]
        out = selector.select(sim.topology, sim.backlog, states)
        assert out is not states
        assert len(out) == len(before)
        assert all(type(s.pi) is int and type(s.tau) is int for s in out)
        assert [(s.pi, s.tau) for s in states] == before


def test_adaptive_selector_exposes_alpha():
    assert AdaptiveSelector(alpha=0.25).alpha == 0.25
    assert controller_strategy(grid_config(alpha=1.5)).alpha == 1.5


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
