"""Command-line interface: exit codes, output files, help text, stream use."""

from __future__ import annotations

import csv
import json
from dataclasses import fields

import pytest

import hcasim.experiments
from hcasim import SimulationError, arterial_config, run
from hcasim.cli import build_parser, main
from hcasim.engine import run_batch
from hcasim.model import _STRATEGIES
from conftest import _in_process_pools


# --- exit codes -----------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_scenario_name_is_usage_error(capsys):
    assert main(["run", "--scenario", "circle"]) == 1
    assert "expected grid, arterial or file:PATH" in capsys.readouterr().err


def test_bad_q_list_is_usage_error(capsys):
    assert main(["compare", "--q-list", "a,b"]) == 1
    assert "comma-separated demand levels" in capsys.readouterr().err


def test_invalid_probability_is_config_error(capsys):
    assert main(["run", "--q", "1.5", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "probability out of range" in err


def test_missing_config_file_is_config_error(capsys):
    assert main(["run", "--scenario", "file:/no/such/file.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_fixed_time_without_split_is_config_error(capsys):
    # built-in scenarios carry no split; fixed_time needs a config file
    assert main(["run", "--strategy", "fixed_time", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "fixed_time_split" in err and "--split" in err


def test_unwritable_output_is_runtime_error(tmp_path, monkeypatch, capsys):
    # the path passes every check, but writing it fails after the runs
    import hcasim.cli

    def disk_full(path, rows):
        raise OSError("disk full")

    monkeypatch.setattr(hcasim.cli, "write_sweep_csv", disk_full)
    code = main(
        ["sweep", "--alpha-list", "0", "--runs", "1", "--steps", "5", "--jobs", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "error: disk full" in capsys.readouterr().err


def test_zero_steps_is_config_error_not_default_horizon(capsys):
    # 0 is a value, not "unset": it must not fall back to the 3600-step default
    assert main(["run", "--steps", "0"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "horizon=0" in captured.err
    assert captured.out == ""


def test_negative_seed_is_config_error(capsys):
    assert main(["run", "--seed", "-1", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed=-1" in err


@pytest.fixture
def no_runs(monkeypatch, tmp_path):
    """Fail the test if any simulation starts; output files land in tmp_path.

    Pools run their batches in this process and never fork; the fixture's
    value lists the size of each pool started.
    """
    import hcasim.cli

    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a simulation started")

    pools = _in_process_pools(monkeypatch)
    monkeypatch.setattr(hcasim.cli, "run", refuse)
    monkeypatch.setattr(hcasim.experiments, "run_many", refuse)
    monkeypatch.setattr(hcasim.experiments, "run_batch", refuse)
    return pools


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_alpha_is_config_error(value, capsys, no_runs):
    assert main(["run", "--alpha", value, "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"alpha={value}" in err


def test_non_finite_alpha_in_config_file_is_config_error(tmp_path, capsys, no_runs):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("alpha = nan\n[scenario]\nkind = grid\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "alpha=nan" in err


def _sweep_and_compare(*flags):
    tiny = ["--steps", "5"]
    return [
        ["sweep", "--alpha-list", "0", *tiny, *flags],
        ["compare", "--q-list", "0.1", *tiny, *flags],
    ]


@pytest.mark.parametrize("argv", _sweep_and_compare("--runs", "0"))
def test_zero_runs_is_config_error(argv, capsys, no_runs):
    assert main(argv) == 2
    assert "--runs 0: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", _sweep_and_compare("--jobs", "0") + _sweep_and_compare("--jobs", "-3")
)
def test_nonpositive_jobs_is_config_error(argv, capsys, no_runs):
    assert main(argv) == 2
    assert f"--jobs {argv[-1]}: must be >= 1" in capsys.readouterr().err


def test_jobs_above_the_core_count_is_capped_with_a_note(tmp_path, monkeypatch, capsys):
    import os

    pools = _in_process_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # uncapped, 3 jobs would cut the 2 cells' 4 runs into 3 batches on 3 workers
    argv = ["compare", "--q-list", "0.1", "--steps", "5", "--runs", "2", "--jobs", "3",
            "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert pools == [2]
    assert "note: --jobs 3 > 2 cores: using 2 workers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", "0,,1", "0,x"])
def test_malformed_alpha_list_is_usage_error(value, capsys, no_runs):
    assert main(["sweep", "--alpha-list", value, "--steps", "5"]) == 1
    assert "expected comma-separated coordination weights" in capsys.readouterr().err
    assert no_runs == []


@pytest.mark.parametrize(
    "value, fragment",
    [
        ("0,nan", "alpha=nan: must be >= 0 and finite"),
        ("0,inf", "alpha=inf: must be >= 0 and finite"),
        ("0,-1", "alpha=-1.0: must be >= 0 and finite"),
    ],
    ids=["nan", "inf", "negative"],
)
def test_bad_weight_in_alpha_list_is_config_error(value, fragment, capsys, no_runs):
    # every weight is checked before a pool or a simulation starts
    argv = ["sweep", "--alpha-list", value, "--runs", "2", "--steps", "5", "--jobs", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert no_runs == []


def test_zero_v_max_in_config_file_is_config_error(tmp_path, capsys, no_runs):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("v_max = 0\n[scenario]\nkind = grid\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "v_max=0: must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--steps", "5", "--out", "no/such/dir/m.csv"],
        ["run", "--steps", "5", "--trace", "no/such/dir/t.csv"],
        ["sweep", "--runs", "2", "--jobs", "1", "--out", "no/such/dir/x.csv"],
        ["compare", "--q-list", "0.1", "--runs", "2", "--jobs", "1",
         "--out", "no/such/dir/x.csv"],
    ],
    ids=["run-out", "run-trace", "sweep", "compare"],
)
def test_output_in_missing_directory_is_config_error(argv, capsys, no_runs):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "no/such/dir" in err and "does not exist" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--steps", "5", "--out", "."],
        ["run", "--steps", "5", "--trace", "."],
        ["sweep", "--runs", "2", "--jobs", "1", "--out", "."],
        ["compare", "--q-list", "0.1", "--runs", "2", "--jobs", "1", "--out", "."],
    ],
    ids=["run-out", "run-trace", "sweep", "compare"],
)
def test_output_naming_a_directory_is_config_error(argv, capsys, no_runs):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and ": is a directory" in err


@pytest.mark.parametrize("trace", ["m.csv", "./m.csv", "link.csv"])
def test_out_and_trace_naming_one_file_is_config_error(trace, tmp_path, capsys, no_runs):
    # the trace would overwrite the metrics row, or the row the trace
    (tmp_path / "link.csv").symlink_to(tmp_path / "m.csv")
    assert main(["run", "--steps", "5", "--out", "m.csv", "--trace", trace]) == 2
    err = capsys.readouterr().err
    assert f"config error: --out m.csv and --trace {trace}: the same file" in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("argv", _sweep_and_compare("--runs", "1", "--jobs", "1", "--out", "x.csv"))
def test_meta_path_naming_a_directory_is_config_error(argv, tmp_path, capsys, no_runs):
    (tmp_path / "x.csv.meta.json").mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: --out x.csv: meta file x.csv.meta.json: is a directory" in err
    assert not (tmp_path / "x.csv").exists()


def test_split_without_fixed_time_is_config_error(capsys, no_runs):
    assert main(["run", "--split", "20,20", "--steps", "5"]) == 2
    assert "--split applies to the fixed_time strategy, not hca" in capsys.readouterr().err


def test_split_leaving_a_node_no_green_is_config_error(capsys, no_runs):
    # the grid's 2-phase nodes read only the split's two zeros
    argv = ["run", "--strategy", "fixed_time", "--split", "0,0,5", "--steps", "5"]
    assert main(argv) == 2
    assert "intersection 0: fixed_time_split leaves every phase at zero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra", [["--strategy", "backpressure"], ["--strategy", "fixed_time", "--split", "20,20"]],
    ids=["backpressure", "fixed_time"],
)
def test_alpha_without_hca_is_config_error(extra, capsys, no_runs):
    assert main(["run", *extra, "--alpha", "2", "--steps", "20"]) == 2
    strategy = extra[1]
    assert f"--alpha applies to the hca strategy, not {strategy}" in capsys.readouterr().err


def test_alpha_on_backpressure_config_file_is_config_error(tmp_path, capsys, no_runs):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("strategy = backpressure\n[scenario]\nkind = grid\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--alpha", "2", "--steps", "20"]) == 2
    assert "--alpha applies to the hca strategy, not backpressure" in capsys.readouterr().err


def test_alpha_key_in_backpressure_config_file_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("alpha = 2\nstrategy = backpressure\n[scenario]\nkind = grid\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--steps", "20"]) == 0
    assert "horizon=20" in capsys.readouterr().out


def test_non_utf8_config_file_is_config_error(tmp_path, capsys, no_runs):
    cfg = tmp_path / "net.cfg"
    cfg.write_bytes(b"# caf\xe9\nq = 0.1\n[scenario]\nkind = grid\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {cfg}" in err and "utf-8" in err


def test_repeated_demand_level_is_config_error(capsys, no_runs):
    argv = ["compare", "--q-list", "0.1,0.1", "--runs", "2", "--steps", "20", "--jobs", "1"]
    assert main(argv) == 2
    assert "demand level q=0.100000 repeats" in capsys.readouterr().err


def test_repeated_alpha_label_is_config_error(capsys, no_runs):
    # 0.0005 prints as alpha=0.001, the label of the next weight
    argv = ["sweep", "--alpha-list", "0.0005,0.001", "--runs", "2", "--steps", "5",
            "--jobs", "2"]
    assert main(argv) == 2
    assert "variant alpha=0.001 repeats" in capsys.readouterr().err
    assert no_runs == []


# --- run subcommand ----------------------------------------------------------------


def test_run_prints_metrics(capsys):
    assert main(["run", "--q", "0.1", "--steps", "30", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert set(lines) == {
        "total_stop_delay",
        "vehicles_injected",
        "vehicles_removed",
        "vehicles_in_network",
        "horizon",
        "seed",
        "config_digest",
    }
    assert lines["horizon"] == "30" and lines["seed"] == "4"


def test_run_fixed_time_takes_split_flag(capsys):
    argv = ["run", "--scenario", "arterial", "--strategy", "fixed_time", "--split", "20,20",
            "--steps", "50"]
    assert main(argv) == 0
    rec = run(arterial_config(strategy="fixed_time", fixed_time_split=(20, 20), horizon=50))
    assert capsys.readouterr().out == "".join(
        f"{f.name}={getattr(rec, f.name)}\n" for f in fields(rec)
    )


def test_run_stdout_is_deterministic(capsys):
    argv = ["run", "--scenario", "arterial", "--q", "0.2", "--steps", "40", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "rec.csv"
    argv = [
        "run", "--q", "0.1", "--steps", "12", "--trace", str(trace), "--out", str(metrics),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(trace.read_text().splitlines()) == 13
    rows = list(csv.DictReader(metrics.open()))
    assert len(rows) == 1 and rows[0]["horizon"] == "12"


def test_run_from_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("q = 0.3\nhorizon = 10\n[scenario]\nkind = grid\nroads_per_direction = 1\nblock = 5\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--q", "0.05", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "horizon=10" in out and "seed=2" in out


# --- sweep subcommand -----------------------------------------------------------------


def _tiny_sweep_argv(out, **extra):
    argv = [
        "sweep", "--scenario", "arterial", "--q", "0.2",
        "--alpha-list", "0,0.1,0.2", "--runs", "2", "--steps", "30", "--jobs", "1",
        "--out", str(out),
    ]
    for k, v in extra.items():
        argv += [k, str(v)]
    return argv


def test_sweep_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(_tiny_sweep_argv(out)) == 0
    captured = capsys.readouterr()
    assert "wrote 3 rows" in captured.out
    # per-row progress goes to stderr, results stay off stdout
    assert captured.err.count("alpha=") == 3
    assert captured.err.count(" elapsed, ETA ") == 3 and "[cell 3/3, " in captured.err
    rows = list(csv.DictReader(out.open()))
    assert [r["variant"] for r in rows] == ["alpha=0.000", "alpha=0.100", "alpha=0.200"]
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["runs"] == 2 and meta["partial"] is False
    assert meta["variants"] == ["alpha=0.000", "alpha=0.100", "alpha=0.200"]


def test_sweep_single_run_flags_degenerate_std(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = _tiny_sweep_argv(out)
    argv[argv.index("--runs") + 1] = "1"
    assert main(argv) == 0
    assert "std is degenerate" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert all(r["std"] == "0.000000" for r in rows)


def test_default_alpha_list_is_21_weights_from_0_to_2():
    alphas = build_parser().parse_args(["sweep"]).alpha_list
    assert alphas == tuple(round(0.1 * i, 10) for i in range(21))
    assert alphas[0] == 0.0 and alphas[-1] == 2.0


def _failing_at_cell(monkeypatch, n):
    """Make the ``n``-th batch fail, each batch holding one cell's 2 runs;
    at --jobs 1 the batches run in cell order."""
    calls = []

    def run_or_fail(runs):
        calls.append(runs)
        if len(calls) == n:
            raise SimulationError(f"cell {n} broke")
        return run_batch(runs)

    monkeypatch.setattr(hcasim.experiments, "_MAX_BATCH_RUNS", 2)
    monkeypatch.setattr(hcasim.experiments, "run_batch", run_or_fail)


_PARTIAL_RUNS = ["--runs", "2", "--steps", "20", "--jobs", "1", "--out", "x.csv"]


@pytest.mark.parametrize(
    "argv, failing_cell, finished",
    [
        (["sweep", "--alpha-list", "0,1", *_PARTIAL_RUNS], 2, ["alpha=0.000"]),
        # the pair at q 0.2 lost its hca cell: it is dropped, not half written
        (["compare", "--q-list", "0.1,0.2", *_PARTIAL_RUNS], 4, ["0.100000"]),
    ],
    ids=["sweep", "compare"],
)
def test_failed_cell_writes_the_finished_rows_as_partial(
    argv, failing_cell, finished, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    _failing_at_cell(monkeypatch, failing_cell)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "sweep failed: " in err and f"cell {failing_cell} broke" in err
    assert "wrote 1 partial rows to x.csv" in err
    rows = list(csv.DictReader((tmp_path / "x.csv").open()))
    assert [r["variant" if argv[0] == "sweep" else "q"] for r in rows] == finished
    assert json.loads((tmp_path / "x.csv.meta.json").read_text())["partial"] is True


@pytest.mark.parametrize(
    "argv", [["sweep", "--alpha-list", "0,1"], ["compare", "--q-list", "0.1"]],
    ids=["sweep", "compare"],
)
def test_failed_first_cell_writes_no_output(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _failing_at_cell(monkeypatch, 1)
    assert main(argv + _PARTIAL_RUNS) == 3
    err = capsys.readouterr().err
    assert "sweep failed: " in err and "cell 1 broke" in err and "partial" not in err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.csv.meta.json").exists()


# --- compare subcommand ------------------------------------------------------------------


def test_compare_writes_pairs(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    argv = [
        "compare", "--scenario", "arterial", "--q-list", "0.1,0.2",
        "--runs", "2", "--steps", "30", "--jobs", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    rows = list(csv.DictReader(out.open()))
    assert [r["q"] for r in rows] == ["0.100000", "0.200000"]
    assert all(set(r) == {
        "scenario", "q", "runs", "backpressure_mean", "backpressure_std",
        "hca_mean", "hca_std", "reduction", "welch_t", "base_seed",
    } for r in rows)
    meta = json.loads((tmp_path / "cmp.csv.meta.json").read_text())
    assert meta["variants"] == ["backpressure", "hca(alpha=0.25)"]


def test_compare_zero_weight_reduces_nothing(tmp_path, capsys):
    # alpha 0 makes the two variants the same controller, so the reduction
    # column must be exactly zero, not merely small
    out = tmp_path / "cmp.csv"
    argv = [
        "compare", "--q-list", "0.15", "--alpha", "0",
        "--runs", "2", "--steps", "40", "--jobs", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["reduction"] == "0.000000"


def test_compare_output_bytes_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["compare", "--q-list", "0.2", "--runs", "2", "--steps", "30",
            "--jobs", "1", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# --- help text -----------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("run", "sweep", "compare"):
        assert sub in out


@pytest.mark.parametrize("sub", ["run", "sweep", "compare"])
def test_subcommand_help_lists_every_flag(sub, capsys):
    assert main([sub, "--help"]) == 0
    text = capsys.readouterr().out
    parser = build_parser()
    subparser = next(
        act for act in parser._actions if hasattr(act, "choices") and act.choices
    ).choices[sub]
    for action in subparser._actions:
        for opt in action.option_strings:
            if opt.startswith("--"):
                assert opt in text, f"{sub} help is missing {opt}"


def test_help_states_defaults(capsys):
    main(["sweep", "--help"])
    text = capsys.readouterr().out
    assert "default: grid" in text and "0,0.1,...,2" in text
    main(["compare", "--help"])
    text = capsys.readouterr().out
    assert "0.05,0.075,0.1,0.125,0.15" in text
    # the strategies a config accepts, from the one list that names them
    main(["run", "--help"])
    assert "{" + ",".join(_STRATEGIES) + "}" in capsys.readouterr().out
