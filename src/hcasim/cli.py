"""Command-line front end.

Three subcommands cover the common workflows:

* ``run``: one simulation, metrics as ``key=value`` lines on stdout.
* ``sweep``: mean stop delay at each of a list of coordination weights, CSV out.
* ``compare``: paired pressure-only vs. coordinated comparison over a list
  of demand levels, CSV out.

Exit codes: 0 success, 1 usage, 2 bad configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace
from typing import Callable

from .engine import MetricsRecord, run
from .experiments import (
    SweepError,
    SweepResult,
    _batches_finished,
    compare_strategies,
    summarize_comparison,
    sweep_alpha,
    write_compare_csv,
    write_meta,
    write_metrics_csv,
    write_sweep_csv,
)
from .model import _STRATEGIES, ConfigError, SimConfig, SimulationError
from .scenarios import SCENARIOS, _comma_list, load_config

_DEFAULT_Q_LIST = "0.05,0.075,0.1,0.125,0.15"
_DEFAULT_ALPHA_LIST = ",".join(f"{i / 10:g}" for i in range(21))  # 0,0.1,...,2
_DEFAULT_JOBS = os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _scenario_arg(value: str) -> str:
    if value in SCENARIOS or value.startswith("file:"):
        return value
    raise argparse.ArgumentTypeError(
        f"expected {', '.join(SCENARIOS)} or file:PATH, got {value!r}"
    )


def _list_arg(kind: type, what: str) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of ``kind`` values."""

    def parse(value: str) -> tuple:
        try:
            return _comma_list(kind, value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {value!r}"
            ) from None

    return parse


# flag -> SimConfig field; a flag that was given replaces the scenario's value
_OVERRIDES = {
    "q": "q", "alpha": "alpha", "strategy": "strategy", "steps": "horizon", "seed": "seed",
    "split": "fixed_time_split",
}


def _base_config(args: argparse.Namespace) -> SimConfig:
    """The --scenario configuration with every flag that was given applied.

    Run and job counts and output paths are checked here too, so every bad
    flag is reported (exit 2) before a simulation starts.  ``--jobs`` above
    the core count is cut to it, with a note on stderr.
    """
    for flag in ("runs", "jobs"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} {value}: must be >= 1")
    cores = os.cpu_count() or 1
    if getattr(args, "jobs", None) is not None and args.jobs > cores:
        print(f"note: --jobs {args.jobs} > {cores} cores: using {cores} workers", file=sys.stderr)
        args.jobs = cores
    out, trace = getattr(args, "out", None), getattr(args, "trace", None)
    outputs = [("--out", out), ("--trace", trace)]
    if getattr(args, "runs", None) is not None:  # sweep and compare write a meta file too
        outputs.append((f"--out {args.out}: meta file", f"{args.out}.meta.json"))
    for label, path in outputs:
        if path is None:
            continue
        if not path:
            raise ConfigError(f"{label}: empty path")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"{label} {path}: directory does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"{label} {path}: is a directory")
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise ConfigError(f"{label} {path}: not writable")
    if out is not None and trace is not None and os.path.realpath(out) == os.path.realpath(trace):
        raise ConfigError(f"--out {out} and --trace {trace}: the same file")
    scenario = args.scenario
    if scenario in SCENARIOS:
        cfg = SCENARIOS[scenario]()
    else:
        path = scenario[5:]
        try:
            cfg = load_config(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    overrides = {
        field: getattr(args, flag)
        for flag, field in _OVERRIDES.items()
        if getattr(args, flag, None) is not None
    }
    strategy = overrides.get("strategy", cfg.strategy)
    if strategy == "fixed_time" and not overrides.get("fixed_time_split", cfg.fixed_time_split):
        raise ConfigError(
            "fixed_time strategy needs green times: --split G1,G2,... "
            "or fixed_time_split in a config file"
        )
    if "fixed_time_split" in overrides and strategy != "fixed_time":
        raise ConfigError(f"--split applies to the fixed_time strategy, not {strategy}")
    # compare always runs an hca variant, which takes the weight
    if "alpha" in overrides and args.command == "run" and strategy != "hca":
        raise ConfigError(f"--alpha applies to the hca strategy, not {strategy}")
    return replace(cfg, **overrides)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    rec = run(cfg, trace=args.trace)
    for field in fields(MetricsRecord):
        print(f"{field.name}={getattr(rec, field.name)}")
    if args.out:
        write_metrics_csv(args.out, [rec])
    return 0


def _progress(cells: int) -> Callable[[SweepResult], None]:
    """A stderr line per finished cell of ``cells``, ending with the time
    elapsed and an ETA from the share of the work done so far."""
    start = time.monotonic()
    done = 0

    def report(row: SweepResult) -> None:
        nonlocal done
        done += 1
        elapsed = time.monotonic() - start
        # Cells run side by side, so the share of the experiment's batches
        # a pool has finished can lead the share of cells reported; each
        # bounds the share of the work done from below.
        finished, planned = _batches_finished()
        eta = elapsed / max(finished / planned, done / cells) - elapsed
        print(
            f"  {row.scenario} q={row.q:g} {row.variant}: "
            f"mean={row.mean:.1f} std={row.std:.1f} ({row.runs} runs) "
            f"[cell {done}/{cells}, {elapsed:.1f}s elapsed, ETA {eta:.1f}s]",
            file=sys.stderr,
        )

    return report


def _experiment(
    args: argparse.Namespace,
    cfg: SimConfig,
    variants: list[str],
    rows_of: Callable[[], list[SweepResult]],
    write: Callable[[str, list[SweepResult]], int],
) -> int:
    """Run ``rows_of()``, then write its rows with ``write`` (which returns
    the number of CSV rows) and the companion meta file.

    If a run fails after some rows finished, those rows are written, marked
    partial, and the failure is raised again.
    """
    if args.runs == 1:
        print("note: std is degenerate (0 by convention) with runs=1", file=sys.stderr)
    failure = None
    try:
        rows = rows_of()
    except SweepError as exc:
        if not exc.partial:
            raise
        rows, failure = exc.partial, exc
    written = write(args.out, rows)
    write_meta(
        f"{args.out}.meta.json", cfg, args.scenario, args.runs, variants,
        partial=failure is not None,
    )
    if failure is not None:
        print(f"wrote {written} partial rows to {args.out}", file=sys.stderr)
        raise failure
    print(f"wrote {written} rows to {args.out}")
    return 0


def _write_sweep(path: str, rows: list[SweepResult]) -> int:
    write_sweep_csv(path, rows)
    return len(rows)


def _write_compare(path: str, rows: list[SweepResult]) -> int:
    pairs = summarize_comparison(rows)
    write_compare_csv(path, pairs)
    return len(pairs)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    return _experiment(
        args,
        cfg,
        [f"alpha={a:.3f}" for a in args.alpha_list],
        lambda: sweep_alpha(
            cfg, args.alpha_list, args.runs, args.scenario, args.jobs,
            _progress(len(args.alpha_list)),
        ),
        _write_sweep,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    # cfg.alpha is the --alpha flag, else the file's or the scenario's tuned weight
    cfg = _base_config(args)
    return _experiment(
        args,
        cfg,
        ["backpressure", f"hca(alpha={cfg.alpha:g})"],
        lambda: compare_strategies(
            cfg, args.q_list, args.runs, args.scenario, args.jobs,
            _progress(2 * len(args.q_list)),
        ),
        _write_compare,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcasim",
        description="Cell-automaton traffic simulator with multilevel signal control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            type=_scenario_arg,
            default="grid",
            help="grid, arterial, or file:PATH (default: grid)",
        )
        p.add_argument("--seed", type=int, default=None, help="base random seed")
        p.add_argument("--steps", type=int, default=None, help="simulation horizon")

    def add_experiment(p: argparse.ArgumentParser, runs_noun: str, out: str) -> None:
        p.add_argument("--runs", type=int, default=50, help=f"replications per {runs_noun}")
        p.add_argument(
            "--jobs",
            type=int,
            default=_DEFAULT_JOBS,
            help=f"parallel worker processes (default: {_DEFAULT_JOBS}, all cores)",
        )
        p.add_argument("--out", default=out, help="output CSV path")

    p_run = sub.add_parser("run", help="run one simulation")
    add_common(p_run)
    p_run.add_argument("--q", type=float, default=None, help="entry demand probability")
    p_run.add_argument("--alpha", type=float, default=None, help="coordination weight (hca only)")
    p_run.add_argument(
        "--strategy",
        choices=_STRATEGIES,
        default=None,
        help="signal control strategy (default: hca)",
    )
    p_run.add_argument(
        "--split",
        type=_list_arg(int, "green times"),
        default=None,
        help="fixed_time green steps per phase, G1,G2,... (config key fixed_time_split)",
    )
    p_run.add_argument("--trace", default=None, help="write a per-step trace CSV here")
    p_run.add_argument("--out", default=None, help="write the metrics row as CSV here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep the coordination weight")
    add_common(p_sweep)
    p_sweep.add_argument("--q", type=float, default=None, help="entry demand probability")
    p_sweep.add_argument(
        "--alpha-list",
        type=_list_arg(float, "coordination weights"),
        default=_DEFAULT_ALPHA_LIST,
        help="comma-separated coordination weights (default: 0,0.1,...,2)",
    )
    add_experiment(p_sweep, "point", "alpha_sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare control strategies")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--q-list",
        type=_list_arg(float, "demand levels"),
        default=_DEFAULT_Q_LIST,
        help=f"comma-separated demand levels (default: {_DEFAULT_Q_LIST})",
    )
    p_cmp.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="coordination weight for the hca variant (default: scenario-tuned)",
    )
    add_experiment(p_cmp, "variant", "strategy_compare.csv")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 3
    except (SimulationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
