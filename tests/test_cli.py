"""Command-line interface: exit codes, output files, help text, stream use."""

from __future__ import annotations

import csv
import json

import pytest

from hcasim.cli import _alpha_grid, build_parser, main


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
    assert "fixed_time_split" in capsys.readouterr().err


def test_unwritable_output_is_runtime_error(capsys):
    code = main(
        ["sweep", "--alpha-from", "0", "--alpha-to", "0", "--alpha-step", "1",
         "--runs", "1", "--steps", "5", "--jobs", "1",
         "--out", "/no/such/dir/out.csv"]
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_empty_alpha_range_is_config_error(capsys):
    assert main(["sweep", "--alpha-from", "1", "--alpha-to", "0.5", "--steps", "5"]) == 2
    assert "empty alpha range" in capsys.readouterr().err


def test_zero_alpha_step_is_config_error(capsys):
    assert main(["sweep", "--alpha-step", "0", "--steps", "5"]) == 2
    assert "must be > 0" in capsys.readouterr().err


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
    """Fail the test if any simulation starts; output files land in tmp_path."""
    import hcasim.cli
    import hcasim.experiments

    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(hcasim.cli, "run", refuse)
    monkeypatch.setattr(hcasim.experiments, "run_many", refuse)


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
        ["sweep", "--alpha-from", "0", "--alpha-to", "0", "--alpha-step", "1", *tiny, *flags],
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


@pytest.mark.parametrize(
    "flag, value, fragment",
    [
        ("--alpha-to", "inf", "--alpha-to inf: must be finite"),
        ("--alpha-step", "nan", "--alpha-step nan: must be finite"),
        ("--alpha-from", "nan", "--alpha-from nan: must be finite"),
        ("--alpha-step", "1e-12", "has 2000000001001 points: at most 10001"),
    ],
)
def test_unbounded_alpha_grid_is_config_error(flag, value, fragment, capsys, no_runs):
    # every value here is rejected before a list of alphas is built
    argv = ["sweep", "--alpha-from", "0", "--alpha-to", "2", "--alpha-step", "0.1",
            "--steps", "5"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err


def test_zero_v_max_in_config_file_is_config_error(tmp_path, capsys, no_runs):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("v_max = 0\n[scenario]\nkind = grid\n")
    assert main(["run", "--scenario", f"file:{cfg}", "--steps", "5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "v_max=0: must be >= 1" in err


def test_repeated_demand_level_is_config_error(capsys, no_runs):
    argv = ["compare", "--q-list", "0.1,0.1", "--runs", "2", "--steps", "20", "--jobs", "1"]
    assert main(argv) == 2
    assert "demand level q=0.100000 repeats" in capsys.readouterr().err


def test_repeated_alpha_label_is_config_error(capsys, no_runs):
    # 0.0005 steps print as alpha=0.001 twice and alpha=0.002 twice
    argv = ["sweep", "--alpha-from", "0", "--alpha-to", "0.002", "--alpha-step", "0.0005",
            "--runs", "1", "--steps", "5", "--jobs", "1"]
    assert main(argv) == 2
    assert "variant alpha=0.001 repeats" in capsys.readouterr().err


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
        "--alpha-from", "0", "--alpha-to", "0.2", "--alpha-step", "0.1",
        "--runs", "2", "--steps", "30", "--jobs", "1", "--out", str(out),
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


def test_alpha_grid_covers_endpoints():
    grid = _alpha_grid(0.0, 2.0, 0.1)
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 2.0
    assert _alpha_grid(0.5, 0.5, 0.25) == [0.5]


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
    assert "default: grid" in text
    main(["compare", "--help"])
    text = capsys.readouterr().out
    assert "0.05,0.075,0.1,0.125,0.15" in text
