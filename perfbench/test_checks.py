"""The benchmark's output checks catch wrong outputs.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from hcasim import aggregate, grid_config, run  # noqa: E402
from hcasim.experiments import (  # noqa: E402
    SweepResult,
    summarize_comparison,
    write_compare_csv,
)

from checks import (  # noqa: E402
    compare_csv_problems,
    load_refsim,
    record_problems,
    reference_problems,
    reference_run,
    row_problems,
)

REFSIM = load_refsim(os.path.join(ROOT, "tests", "reference.py"))


@pytest.fixture(scope="module")
def small_run():
    cfg = grid_config(q=0.2, seed=3, horizon=120, roads_per_direction=2)
    return cfg, dataclasses.asdict(run(cfg))


def test_true_record_passes(small_run):
    cfg, rec = small_run
    assert rec["total_stop_delay"] > 0
    assert record_problems(rec, cfg.horizon) == []
    assert reference_problems(rec, reference_run(REFSIM, cfg)) == []


def test_one_stop_too_many_is_caught(small_run):
    cfg, rec = small_run
    bad = dict(rec, total_stop_delay=rec["total_stop_delay"] + 1)
    problems = reference_problems(bad, reference_run(REFSIM, cfg))
    assert any("total_stop_delay" in p for p in problems)


def test_stop_delay_above_vehicle_updates_is_caught(small_run):
    cfg, rec = small_run
    ref = reference_run(REFSIM, cfg)
    ref["vehicle_updates"] = rec["total_stop_delay"] - 1
    assert any("vehicle updates" in p for p in reference_problems(rec, ref))


def test_lost_vehicle_and_short_horizon_are_caught(small_run):
    cfg, rec = small_run
    assert record_problems(dict(rec, vehicles_removed=rec["vehicles_removed"] - 1),
                           cfg.horizon)
    assert record_problems(dict(rec, horizon=cfg.horizon - 1), cfg.horizon)


DELAYS = {
    0.05: {"backpressure": [120.0, 133.0, 128.0], "hca": [125.0, 141.0, 119.0]},
    0.15: {"backpressure": [901.0, 1010.0, 955.0], "hca": [930.0, 1002.0, 1100.0]},
}


def _rows() -> list[SweepResult]:
    return [
        SweepResult("grid", q, variant, len(values), *aggregate(values), 7)
        for q, cell in DELAYS.items()
        for variant, values in cell.items()
    ]


def test_true_rows_pass():
    for row in _rows():
        assert row_problems(dataclasses.asdict(row), DELAYS[row.q][row.variant]) == []


@pytest.mark.parametrize("error", [1.0, 1e-6])
def test_wrong_row_mean_is_caught(error):
    row = dataclasses.asdict(_rows()[0])
    row["mean"] += error
    problems = row_problems(row, DELAYS[row["q"]][row["variant"]])
    assert any("mean" in p for p in problems)


def _compare_csv(tmp_path) -> str:
    path = tmp_path / "cmp.csv"
    write_compare_csv(str(path), summarize_comparison(_rows()))
    return path.read_text()


def test_true_compare_csv_passes(tmp_path):
    assert compare_csv_problems(_compare_csv(tmp_path), DELAYS, 3, 7) == []


@pytest.mark.parametrize("column", ["hca_mean", "backpressure_std", "reduction", "welch_t"])
def test_wrong_compare_csv_value_is_caught(tmp_path, column):
    rows = list(csv.DictReader(io.StringIO(_compare_csv(tmp_path))))
    rows[1][column] = f"{float(rows[1][column]) + 0.000002:.6f}"
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    problems = compare_csv_problems(out.getvalue(), DELAYS, 3, 7)
    assert any(column in p for p in problems)
