"""Multi-run machinery: aggregation, Welch test, sweeps, CSV round trips."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings

import hcasim
from hcasim import (
    ComparisonRow,
    ConfigError,
    SimConfig,
    SweepError,
    SweepResult,
    aggregate,
    arterial_config,
    compare_strategies,
    grid_config,
    run,
    run_many,
    summarize_comparison,
    sweep_alpha,
    welch_one_sided,
)
from hcasim.engine import run_batch
from hcasim.experiments import (
    write_compare_csv,
    write_meta,
    write_metrics_csv,
    write_sweep_csv,
)

from conftest import _in_process_pools, cross_topology, merge_topology
from netgen import random_config


# --- aggregation ---------------------------------------------------------------


def test_aggregate_single_value():
    assert aggregate([10.0]) == (10.0, 0.0, 10.0, 10.0)


def test_aggregate_pair():
    mean, std, lo, hi = aggregate([2.0, 4.0])
    assert (mean, lo, hi) == (3.0, 2.0, 4.0)
    assert std == pytest.approx(math.sqrt(2.0))


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="at least one value"):
        aggregate([])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40))
def test_aggregate_matches_streaming_oracle(values):
    # Welford's online algorithm as an independent route to mean/std
    count, mean, m2 = 0, 0.0, 0.0
    for x in values:
        count += 1
        d = x - mean
        mean += d / count
        m2 += d * (x - mean)
    want_std = math.sqrt(m2 / (count - 1))
    got_mean, got_std, got_lo, got_hi = aggregate(values)
    scale = max(1.0, abs(mean))
    assert abs(got_mean - mean) <= 1e-9 * scale
    assert abs(got_std - want_std) <= 1e-6 * max(1.0, want_std)
    assert (got_lo, got_hi) == (min(values), max(values))


# --- Welch test ------------------------------------------------------------------


def test_welch_matches_scipy():
    a = [310.0, 295.0, 330.0, 305.0, 322.0]
    b = [280.0, 262.0, 291.0, 270.0, 286.0]
    ma, sa, _, _ = aggregate(a)
    mb, sb, _, _ = aggregate(b)
    t, p = welch_one_sided(ma, sa, len(a), mb, sb, len(b))
    ref = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
    assert t == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-12)


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded, as a printed list, after ``code`` runs in a
    fresh interpreter that imports hcasim from this checkout."""
    src = os.path.dirname(os.path.dirname(hcasim.__file__))
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


def test_import_and_run_leave_scipy_unloaded():
    # scipy.stats is slow to import and only welch_one_sided's p-value needs it
    code = "import hcasim\nhcasim.run(hcasim.grid_config(roads_per_direction=2, horizon=5))"
    assert _scipy_modules_after(code) == "[]"


def test_compare_leaves_scipy_unloaded(tmp_path):
    # the compare CSV holds the Welch t alone, which needs no scipy
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[scenario]\nkind = grid\nroads_per_direction = 2\n")
    argv = ["compare", "--scenario", f"file:{cfg}", "--q-list", "0.1,0.2", "--steps", "20",
            "--runs", "2", "--jobs", "1", "--out", str(tmp_path / "c.csv")]
    code = f"import hcasim.cli\nassert hcasim.cli.main({argv!r}) == 0"
    assert _scipy_modules_after(code) == "[]"
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 3


@pytest.mark.filterwarnings("ignore:Precision loss occurred")
@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.floats(0, 1000, allow_nan=False), min_size=2, max_size=12),
    b=st.lists(st.floats(0, 1000, allow_nan=False), min_size=2, max_size=12),
)
def test_welch_matches_scipy_generated(a, b):
    ma, sa, _, _ = aggregate(a)
    mb, sb, _, _ = aggregate(b)
    if sa == 0.0 and sb == 0.0:
        return  # degenerate branch pinned separately
    t, p = welch_one_sided(ma, sa, len(a), mb, sb, len(b))
    ref = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
    assert t == pytest.approx(ref.statistic, rel=1e-9, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "ma,mb,expect",
    [(5.0, 3.0, (math.inf, 0.0)), (3.0, 5.0, (-math.inf, 1.0)), (4.0, 4.0, (0.0, 0.5))],
)
def test_welch_degenerate_zero_variance(ma, mb, expect):
    assert welch_one_sided(ma, 0.0, 3, mb, 0.0, 3) == expect


def test_welch_subnormal_variance_stays_finite():
    # vb is subnormal, so vb * vb underflows to 0 while se2 > 0: the
    # Welch-Satterthwaite df must come from ratios, not squared variances
    t, p = welch_one_sided(0, 0, 2, 1.0, 2.5e-161, 2)
    assert math.isfinite(t) and t < 0
    assert math.isfinite(p) and p == 1.0


def test_welch_requires_two_runs():
    with pytest.raises(ValueError, match="at least two runs"):
        welch_one_sided(1.0, 0.0, 1, 2.0, 1.0, 5)


# --- replication running ----------------------------------------------------------


def _tiny(**over):
    base = dict(q=0.3, horizon=80, seed=100)
    base.update(over)
    return SimConfig(cross_topology(), **base)


def test_run_many_seeds_sequentially():
    records = run_many(_tiny(), 4)
    assert [r.seed for r in records] == [100, 101, 102, 103]
    assert len({r.total_stop_delay for r in records} | {r.seed for r in records}) > 1


def test_run_many_explicit_base_seed():
    records = run_many(_tiny(), 3, base_seed=500)
    assert [r.seed for r in records] == [500, 501, 502]


def test_records_of_a_numpy_base_seed_carry_python_ints():
    # a numpy seed would make the record refuse to serialize
    records = run_many(_tiny(horizon=5), 2, base_seed=np.int64(5))
    assert [(r.seed, type(r.seed)) for r in records] == [(5, int), (6, int)]
    json.dumps([asdict(r) for r in records])


def test_run_many_rejects_zero_runs():
    with pytest.raises(ValueError, match="runs=0"):
        run_many(_tiny(), 0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_many_rejects_a_bad_base_seed_before_any_run(monkeypatch, jobs):
    import hcasim.experiments as mod

    def refuse(*args, **kwargs):
        raise AssertionError("a run or a pool started")

    monkeypatch.setattr(mod, "run_batch", refuse)
    monkeypatch.setattr(mod, "ProcessPoolExecutor", refuse)
    for base_seed, message in ((-2, "base_seed=-2: must be >= 0"), (0.5, "base_seed: 0.5 is not")):
        with pytest.raises(ValueError, match=message):
            run_many(_tiny(), 3, base_seed=base_seed, jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_many_rejects_nonpositive_jobs(jobs):
    with pytest.raises(ValueError, match=f"jobs={jobs}: must be >= 1"):
        run_many(_tiny(), 2, jobs=jobs)


@pytest.mark.parametrize(
    "runs, jobs, message",
    [(2.0, 1, "runs: 2.0 is not an integer"), (2, "2", "jobs: '2' is not an integer")],
    ids=["runs", "jobs"],
)
def test_run_many_rejects_a_count_that_is_not_an_integer(runs, jobs, message):
    with pytest.raises(ConfigError, match=message):
        run_many(_tiny(), runs, jobs=jobs)


EXPERIMENTS = {
    "sweep": lambda runs, jobs: sweep_alpha(_tiny(), [0.0], runs, "x", jobs),
    "compare": lambda runs, jobs: compare_strategies(_tiny(), [0.1], runs, "x", jobs),
}


@pytest.mark.parametrize("runs, jobs, bad", [(0, 1, "runs=0"), (2, 0, "jobs=0")])
@pytest.mark.parametrize("experiment", EXPERIMENTS.values(), ids=EXPERIMENTS)
def test_experiments_reject_bad_counts_before_the_first_cell(
    monkeypatch, experiment, runs, jobs, bad
):
    # a bad count is the caller's error, not a failed cell with no partial rows
    import hcasim.experiments as mod

    def refuse(*args, **kwargs):
        raise AssertionError("a cell started")

    monkeypatch.setattr(mod, "run_many", refuse)
    with pytest.raises(ValueError, match=f"{bad}: must be >= 1"):
        experiment(runs, jobs)


def test_run_many_parallel_equals_serial():
    serial = run_many(_tiny(), 4, jobs=1)
    parallel = run_many(_tiny(), 4, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("runs, jobs, pools", [(2, 64, [2]), (3, 2, [2]), (1, 8, [])])
def test_run_many_starts_no_more_workers_than_runs(monkeypatch, runs, jobs, pools):
    sizes = _in_process_pools(monkeypatch)
    records = run_many(_tiny(), runs, jobs=jobs)
    assert sizes == pools
    assert records == run_many(_tiny(), runs, jobs=1)


TWO_CELLS = {
    "sweep": lambda jobs: sweep_alpha(_tiny(), [0.0, 1.0], 3, "x", jobs),
    "compare": lambda jobs: compare_strategies(_tiny(), [0.1], 3, "x", jobs),
}


@pytest.mark.parametrize("experiment", TWO_CELLS.values(), ids=TWO_CELLS)
def test_an_experiment_starts_one_pool_for_all_its_cells(monkeypatch, experiment):
    serial = experiment(1)
    sizes = _in_process_pools(monkeypatch)
    assert experiment(2) == serial
    assert sizes == [2]
    # the experiment's pool is gone with it: run_many alone starts its own
    run_many(_tiny(), 3, jobs=2)
    assert sizes == [2, 2]


def _one_cell_per_batch(monkeypatch, runs: int) -> None:
    """Hold batches to ``runs`` runs, one cell's worth: each batch then
    holds one cell, as a test that pins per-cell batches needs."""
    import hcasim.experiments as mod

    monkeypatch.setattr(mod, "_MAX_BATCH_RUNS", runs)


@pytest.mark.parametrize("cells, jobs, runs, pools, ranges", [
    # the experiment's runs, cell after cell, cut into min(jobs, runs in all)
    # near-equal batches; ranges index the runs of all cells in that order
    (6, 2, 4, [2], [(0, 12), (12, 24)]),
    (2, 2, 4, [2], [(0, 4), (4, 8)]),
    (2, 2, 1, [2], [(0, 1), (1, 2)]),
    (1, 2, 4, [2], [(0, 2), (2, 4)]),
    # batches may hold parts of cells
    (3, 8, 4, [8], [(0, 1), (1, 3), (3, 4), (4, 6), (6, 7), (7, 9), (9, 10), (10, 12)]),
    (2, 3, 5, [3], [(0, 3), (3, 6), (6, 10)]),
    (1, 64, 2, [2], [(0, 1), (1, 2)]),
    # one batch or one job: no pool
    (1, 2, 1, [], []),
    (4, 1, 4, [], []),
])
def test_an_experiment_submits_its_planned_batches(monkeypatch, cells, jobs, runs, pools, ranges):
    # the pool gets a worker per batch, up to jobs
    alphas = [0.25 * k for k in range(cells)]
    serial = sweep_alpha(_tiny(), alphas, runs, "x", 1)
    log: list = []
    sizes = _in_process_pools(monkeypatch, log)
    assert sweep_alpha(_tiny(), alphas, runs, "x", jobs) == serial
    assert sizes == pools
    submitted = [[(cfg.alpha, cfg.seed) for cfg in batch] for event, batch in log
                 if event == "submit"]
    every_run = [(a, seed) for a in alphas for seed in range(100, 100 + runs)]
    assert submitted == [every_run[lo:hi] for lo, hi in ranges]


@pytest.mark.parametrize("runs, jobs, cap, sizes", [
    (120, 1, 50, [40, 40, 40]),
    (101, 2, 50, [33, 34, 34]),
    (100, 2, 50, [50, 50]),
    (9, 2, 4, [3, 3, 3]),
    (8, 4, 100, [2, 2, 2, 2]),
])
def test_no_batch_holds_more_runs_than_the_cap(monkeypatch, runs, jobs, cap, sizes):
    import hcasim.experiments as mod

    monkeypatch.setattr(mod, "_MAX_BATCH_RUNS", cap)
    batches = []
    monkeypatch.setattr(mod, "run_batch", lambda batch: batches.append(batch) or [
        hcasim.engine.MetricsRecord(0, 0, 0, 0, 1, cfg.seed, "") for cfg in batch
    ])
    _in_process_pools(monkeypatch)
    records = run_many(_tiny(), runs, jobs=jobs)
    assert [len(batch) for batch in batches] == sizes
    assert [r.seed for r in records] == list(range(100, 100 + runs))


def test_every_cell_is_submitted_before_the_first_is_collected(monkeypatch):
    log: list = []
    _in_process_pools(monkeypatch, log)
    rows = compare_strategies(_tiny(), [0.1, 0.3], 3, "x", jobs=2)
    cells = [(0.1, "backpressure"), (0.1, "hca"), (0.3, "backpressure"), (0.3, "hca")]
    # two batches of six runs, each holding two whole cells
    halves = [[cell for cell in pair for _ in range(3)] for pair in (cells[:2], cells[2:])]
    assert [(event, [(cfg.q, cfg.strategy) for cfg in batch]) for event, batch in log] == (
        [("submit", half) for half in halves] + [("result", half) for half in halves]
    )
    assert [(r.q, r.variant) for r in rows] == cells


def test_one_run_cells_spread_over_the_jobs(monkeypatch):
    serial = compare_strategies(_tiny(), [0.1], runs=1, scenario="x", jobs=1)
    sizes = _in_process_pools(monkeypatch)
    assert compare_strategies(_tiny(), [0.1], runs=1, scenario="x", jobs=2) == serial
    assert sizes == [2]


def test_the_eta_counts_the_batches_finished_side_by_side(monkeypatch, capsys):
    import types

    import hcasim.cli

    clock = [0.0]
    monkeypatch.setattr(hcasim.cli, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    _in_process_pools(monkeypatch, clock=clock)
    _one_cell_per_batch(monkeypatch, 2)
    # two workers finish six whole-cell batches two at a time, one per tick
    rows = compare_strategies(_tiny(), [0.1, 0.2, 0.3], 2, "x", jobs=2,
                              progress=hcasim.cli._progress(6))
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" [cell")[0] for line in lines] == [
        f"  x q={r.q:g} {r.variant}: mean={r.mean:.1f} std={r.std:.1f} (2 runs)" for r in rows
    ]
    assert [line.split(" [")[1] for line in lines] == [
        "cell 1/6, 1.0s elapsed, ETA 2.0s]",
        "cell 2/6, 1.0s elapsed, ETA 2.0s]",
        "cell 3/6, 2.0s elapsed, ETA 1.0s]",
        "cell 4/6, 2.0s elapsed, ETA 1.0s]",
        "cell 5/6, 3.0s elapsed, ETA 0.0s]",
        "cell 6/6, 3.0s elapsed, ETA 0.0s]",
    ]


# every seed draws, numbers its vehicles and ends as it does alone
BATCHED = {
    "grid": lambda: grid_config(q=0.12, horizon=150, seed=3),
    "arterial-side-demand": lambda: arterial_config(q=0.2, side_q=0.05, horizon=150, seed=5),
    "merge": lambda: SimConfig(merge_topology(), q=0.5, p=0.1, horizon=150, seed=4),
    "netgen17": lambda: random_config(17, horizon=150),
    "netgen47": lambda: random_config(47, horizon=150),
    "entries-sharing-a-cell": lambda: SimConfig(
        replace(cross_topology(), entry_points=((0, 0), (1, 0), (0, 0))),
        q=0.6, horizon=150, seed=6,
    ),
    "fixed-time-split": lambda: arterial_config(
        strategy="fixed_time", fixed_time_split=(7, 3), q=0.2, horizon=150, seed=2
    ),
    "min-green-stop-window": lambda: grid_config(
        q=0.15, horizon=150, seed=9, min_green=3, stop_window=5
    ),
    "entry-intensities": lambda: SimConfig(
        cross_topology(), entry_intensities=(0.7, None), q=0.2, horizon=150, seed=8
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("make", BATCHED.values(), ids=BATCHED)
def test_run_many_equals_each_seed_run_alone(make, jobs):
    cfg = make()
    alone = [run(replace(cfg, seed=cfg.seed + i)) for i in range(5)]
    assert run_many(cfg, 5, jobs=jobs) == alone


def test_run_many_on_result_callback():
    seen = []
    records = run_many(_tiny(), 3, on_result=seen.append)
    assert seen == records


def test_paired_seeding_gives_identical_demand():
    # same seeds, different controller: the offered arrivals must match
    bp = run_many(_tiny(strategy="backpressure"), 3)
    hca = run_many(_tiny(strategy="hca", alpha=1.0), 3)
    assert [r.vehicles_injected for r in bp] == [r.vehicles_injected for r in hca]


# --- sweeps -----------------------------------------------------------------------


def test_sweep_alpha_rows():
    rows = sweep_alpha(_tiny(seed=7), [0.0, 1.0], runs=3, scenario="cross")
    assert [r.variant for r in rows] == ["alpha=0.000", "alpha=1.000"]
    assert all(r.runs == 3 and r.base_seed == 7 and r.scenario == "cross" for r in rows)
    assert all(r.min <= r.mean <= r.max for r in rows)


def test_sweep_alpha_is_pure():
    cfg = _tiny()
    a = sweep_alpha(cfg, [0.5], runs=2, scenario="x")
    b = sweep_alpha(cfg, [0.5], runs=2, scenario="x")
    assert a == b


ALPHAS_RUN: list[float] = []


def _fails_at_alpha_one(configs):
    # module level, so that a pool worker can unpickle it
    alphas = list(dict.fromkeys(config.alpha for config in configs))
    ALPHAS_RUN.extend(alphas)
    if 1.0 in alphas:
        raise RuntimeError("disk full")
    return run_batch(configs)


def test_sweep_error_carries_partial_rows(monkeypatch):
    import hcasim.experiments as mod

    # fails inside the second cell's batches, in the pool's workers at jobs=2
    monkeypatch.setattr(mod, "run_batch", _fails_at_alpha_one)
    _one_cell_per_batch(monkeypatch, 2)
    for jobs in (1, 2):
        with pytest.raises(SweepError, match="alpha=1") as exc_info:
            sweep_alpha(_tiny(), [0.0, 1.0], runs=2, scenario="x", jobs=jobs)
        assert len(exc_info.value.partial) == 1
        assert exc_info.value.partial[0].variant == "alpha=0.000"


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_batch_fails_every_cell_it_holds(monkeypatch, jobs):
    import hcasim.experiments as mod

    # batches of two cells each: alphas 0 and 0.5, 1 and 1.5, 2 and 2.5
    monkeypatch.setattr(mod, "run_batch", _fails_at_alpha_one)
    monkeypatch.setattr(sys.modules[__name__], "ALPHAS_RUN", [])
    _one_cell_per_batch(monkeypatch, 4)
    if jobs > 1:
        _in_process_pools(monkeypatch)
    alphas = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    serial = sweep_alpha(_tiny(), alphas[:2], runs=2, scenario="x")
    with pytest.raises(SweepError, match="alpha=1.000: disk full") as exc_info:
        sweep_alpha(_tiny(), alphas, runs=2, scenario="x", jobs=jobs)
    # the earlier batch's rows are kept; alpha 1.5 fails with alpha 1
    assert exc_info.value.partial == serial
    assert 2.0 not in ALPHAS_RUN


def test_a_failed_cell_cancels_the_batches_not_started(monkeypatch):
    import hcasim.experiments as mod

    monkeypatch.setattr(mod, "run_batch", _fails_at_alpha_one)
    monkeypatch.setattr(sys.modules[__name__], "ALPHAS_RUN", [])
    _one_cell_per_batch(monkeypatch, 2)
    sizes = _in_process_pools(monkeypatch)
    with pytest.raises(SweepError, match="alpha=1") as exc_info:
        sweep_alpha(_tiny(), [0.0, 1.0, 2.0, 3.0], runs=2, scenario="x", jobs=2)
    assert [r.variant for r in exc_info.value.partial] == ["alpha=0.000"]
    assert sizes == [2]
    assert 3.0 not in ALPHAS_RUN


def _logs_alpha_and_fails_at_one(configs):
    # module level, so that a pool worker can unpickle it; the log file is
    # named in the environment, which every worker inherits
    (alpha,) = {config.alpha for config in configs}
    with open(os.environ["HCASIM_TEST_ALPHA_LOG"], "a") as fh:
        fh.write(f"{alpha}\n")
    if alpha == 1.0:
        raise RuntimeError("disk full")
    time.sleep(1.0 if alpha == 0.0 else 0.05)
    return run_batch(configs)


def test_a_failed_cell_stops_the_later_batches_of_a_real_pool(monkeypatch, tmp_path):
    import hcasim.experiments as mod

    log = tmp_path / "alphas"
    monkeypatch.setenv("HCASIM_TEST_ALPHA_LOG", str(log))
    monkeypatch.setattr(mod, "run_batch", _logs_alpha_and_fails_at_one)
    # the plan is made here, before the pool forks: one cell per batch
    _one_cell_per_batch(monkeypatch, 2)
    jobs = 2
    # Alpha 1 fails at once while alpha 0 sleeps, so the cells are collected
    # long after the failure.  By then a pool without cancellation has run
    # every batch.  With it, only the batches the pool had already handed
    # out may run: one per worker, the next one the failed batch's worker
    # takes, and the jobs + 1 in the executor's call queue.
    handed_out = jobs + 1 + (jobs + 1)
    with pytest.raises(SweepError, match="alpha=1") as exc_info:
        sweep_alpha(_tiny(), [float(a) for a in range(10)], runs=2, scenario="x", jobs=jobs)
    assert [r.variant for r in exc_info.value.partial] == ["alpha=0.000"]
    ran = sorted(float(line) for line in log.read_text().split())
    assert ran[:2] == [0.0, 1.0]
    assert max(ran) < handed_out


def test_an_interrupt_cancels_the_batches_not_started(monkeypatch):
    import hcasim.experiments as mod

    monkeypatch.setattr(mod, "run_batch", _fails_at_alpha_one)
    monkeypatch.setattr(sys.modules[__name__], "ALPHAS_RUN", [])
    _one_cell_per_batch(monkeypatch, 2)
    _in_process_pools(monkeypatch)

    def interrupt(row):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        sweep_alpha(_tiny(), [0.0, 2.0, 3.0], runs=2, scenario="x", jobs=2, progress=interrupt)
    assert ALPHAS_RUN == [0.0]


def test_sweep_invalid_weight_is_a_config_error():
    # rejected before any run starts, so no partial results to salvage
    from hcasim import ConfigError

    with pytest.raises(ConfigError, match="alpha=-1"):
        sweep_alpha(_tiny(), [0.0, -1.0], runs=2, scenario="x")


def test_compare_strategies_row_layout():
    rows = compare_strategies(_tiny(alpha=1.0, seed=9), [0.1, 0.3], runs=2, scenario="cross")
    assert [(r.q, r.variant) for r in rows] == [
        (0.1, "backpressure"),
        (0.1, "hca"),
        (0.3, "backpressure"),
        (0.3, "hca"),
    ]


def test_zero_weight_equals_backpressure_means():
    rows = compare_strategies(_tiny(alpha=0.0), [0.3], runs=3, scenario="cross")
    bp, hca = rows
    assert (bp.mean, bp.std, bp.min, bp.max) == (hca.mean, hca.std, hca.min, hca.max)


def test_monotone_load_increases_delay():
    rows = compare_strategies(
        _tiny(horizon=300, alpha=1.0), [0.05, 0.5], runs=3, scenario="cross"
    )
    light = [r for r in rows if r.q == 0.05 and r.variant == "backpressure"][0]
    heavy = [r for r in rows if r.q == 0.5 and r.variant == "backpressure"][0]
    assert heavy.mean > light.mean


# --- pairing summary ---------------------------------------------------------------


def _sweep_row(q, variant, mean, std=4.0, runs=5):
    return SweepResult("s", q, variant, runs, mean, std, mean - 5, mean + 5, 10)


def test_summarize_comparison_pairs_and_reduction():
    rows = [
        _sweep_row(0.1, "backpressure", 200.0),
        _sweep_row(0.1, "hca", 150.0),
        _sweep_row(0.2, "backpressure", 400.0),
        _sweep_row(0.2, "hca", 380.0),
    ]
    pairs = summarize_comparison(rows)
    assert [p.q for p in pairs] == [0.1, 0.2]
    assert pairs[0].reduction == pytest.approx(0.25)
    assert pairs[1].reduction == pytest.approx(0.05)
    t, _ = welch_one_sided(200.0, 4.0, 5, 150.0, 4.0, 5)
    assert pairs[0].welch_t == pytest.approx(t)


def test_summarize_comparison_zero_baseline():
    pairs = summarize_comparison(
        [_sweep_row(0.1, "backpressure", 0.0, std=0.0), _sweep_row(0.1, "hca", 0.0, std=0.0)]
    )
    assert pairs[0].reduction == 0.0


def test_summarize_comparison_single_run_gives_nan_t():
    pairs = summarize_comparison(
        [_sweep_row(0.1, "backpressure", 10.0, runs=1), _sweep_row(0.1, "hca", 8.0, runs=1)]
    )
    assert math.isnan(pairs[0].welch_t)


def test_summarize_comparison_drops_incomplete_pairs():
    pairs = summarize_comparison(
        [
            _sweep_row(0.1, "backpressure", 10.0),
            _sweep_row(0.1, "hca", 9.0),
            _sweep_row(0.2, "backpressure", 20.0),  # hca row missing
        ]
    )
    assert [p.q for p in pairs] == [0.1]


# --- CSV and meta files --------------------------------------------------------------


def _parse_csv(path, row_type):
    """The rows of a written CSV file as ``row_type``, its header checked."""
    kinds = get_type_hints(row_type)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [f.name for f in fields(row_type)]
        return [row_type(**{k: kinds[k](v) for k, v in rec.items()}) for rec in reader]


def test_sweep_csv_round_trip(tmp_path):
    rows = sweep_alpha(_tiny(), [0.0, 0.5], runs=2, scenario="cross")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), rows)
    first = path.read_bytes()
    parsed = _parse_csv(path, SweepResult)
    assert [r.variant for r in parsed] == [r.variant for r in rows]
    write_sweep_csv(str(path), parsed)
    assert path.read_bytes() == first


def test_compare_csv_round_trip_including_nan(tmp_path):
    pairs = [
        ComparisonRow("s", 0.1, 1, 10.0, 0.0, 8.0, 0.0, 0.2, math.nan, 3),
        ComparisonRow("s", 0.2, 5, 20.0, 1.0, 15.0, 1.5, 0.25, 4.2, 3),
    ]
    path = tmp_path / "cmp.csv"
    write_compare_csv(str(path), pairs)
    first = path.read_bytes()
    parsed = _parse_csv(path, ComparisonRow)
    assert math.isnan(parsed[0].welch_t)
    assert parsed[1].welch_t == pytest.approx(4.2)
    write_compare_csv(str(path), parsed)
    assert path.read_bytes() == first


def test_metrics_csv_lists_each_run(tmp_path):
    records = run_many(_tiny(), 3)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), records)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("total_stop_delay,")
    assert [int(l.split(",")[5]) for l in lines[1:]] == [100, 101, 102]


def test_meta_file_contents(tmp_path):
    cfg = _tiny(seed=40)
    path = tmp_path / "meta.json"
    write_meta(str(path), cfg, "cross", runs=5, variants=["a", "b"])
    doc = json.loads(path.read_text())
    assert doc["scenario"] == "cross"
    assert doc["seeds"] == [40, 44]
    assert doc["variants"] == ["a", "b"]
    assert doc["partial"] is False
    write_meta(str(path), cfg, "cross", runs=5, variants=["a", "b"])
    assert json.loads(path.read_text()) == doc


def test_meta_partial_flag(tmp_path):
    path = tmp_path / "meta.json"
    write_meta(str(path), _tiny(), "x", runs=1, variants=[], partial=True)
    assert json.loads(path.read_text())["partial"] is True


def test_arterial_side_demand_reaches_runs():
    # smoke: the per-entry intensity plumbing survives the sweep layer
    cfg = arterial_config(intersections=2, q=0.2, horizon=120, side_q=0.5)
    records = run_many(cfg, 2)
    assert all(r.vehicles_injected > 0 for r in records)
