"""Command-line front end.

Three subcommands cover the common workflows:

* ``run``: one simulation, metrics as ``key=value`` lines on stdout.
* ``sweep``: mean stop delay across a coordination-weight grid, CSV out.
* ``compare``: paired pressure-only vs. coordinated comparison over a list
  of demand levels, CSV out.

Exit codes: 0 success, 1 usage, 2 bad configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from typing import Callable

from .engine import MetricsRecord, run
from .experiments import (
    SweepError,
    SweepResult,
    compare_strategies,
    summarize_comparison,
    sweep_alpha,
    write_compare_csv,
    write_meta,
    write_metrics_csv,
    write_sweep_csv,
)
from .model import ConfigError, SimConfig, SimulationError
from .scenarios import SCENARIOS, load_config

_DEFAULT_Q_LIST = "0.05,0.075,0.1,0.125,0.15"
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


def _q_list_arg(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated demand levels, got {value!r}"
        ) from None


# flag -> SimConfig field; a flag that was given replaces the scenario's value
_OVERRIDES = {
    "q": "q", "alpha": "alpha", "strategy": "strategy", "steps": "horizon", "seed": "seed"
}


def _base_config(args: argparse.Namespace) -> SimConfig:
    """The --scenario configuration with every flag that was given applied.

    Run and job counts are checked here too, so every bad flag is reported
    (exit 2) before a simulation starts.
    """
    for flag in ("runs", "jobs"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} {value}: must be >= 1")
    scenario = args.scenario
    if scenario in SCENARIOS:
        cfg = SCENARIOS[scenario]()
    else:
        path = scenario[5:]
        try:
            cfg = load_config(path)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    overrides = {
        field: getattr(args, flag)
        for flag, field in _OVERRIDES.items()
        if getattr(args, flag, None) is not None
    }
    return replace(cfg, **overrides)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _base_config(args)
    rec = run(cfg, trace=args.trace)
    for field in fields(MetricsRecord):
        print(f"{field.name}={getattr(rec, field.name)}")
    if args.out:
        write_metrics_csv(args.out, [rec])
    return 0


_MAX_ALPHA_POINTS = 10_001


def _alpha_grid(start: float, stop: float, step: float) -> list[float]:
    for flag, x in (("from", start), ("to", stop), ("step", step)):
        if not math.isfinite(x):
            raise ConfigError(f"--alpha-{flag} {x}: must be finite")
    if step <= 0:
        raise ConfigError(f"alpha step {step}: must be > 0")
    if stop < start:
        raise ConfigError(f"empty alpha range [{start}, {stop}]")
    # the number of points the loop below would produce, known before it runs
    span = (stop + 1e-9 - start) / step
    points = math.floor(span) + 1 if math.isfinite(span) else span
    if points > _MAX_ALPHA_POINTS:
        raise ConfigError(
            f"alpha grid [{start}, {stop}] step {step} has {points} points: "
            f"at most {_MAX_ALPHA_POINTS}"
        )
    out: list[float] = []
    i = 0
    x = start
    while x <= stop + 1e-9:
        out.append(round(x, 10))
        i += 1
        x = start + i * step
    return out


def _progress(row) -> None:
    print(
        f"  {row.scenario} q={row.q:g} {row.variant}: "
        f"mean={row.mean:.1f} std={row.std:.1f} ({row.runs} runs)",
        file=sys.stderr,
    )


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
        f"{args.out}.meta.json", cfg, args.scenario, args.runs, cfg.seed, variants,
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
    alphas = _alpha_grid(args.alpha_from, args.alpha_to, args.alpha_step)
    return _experiment(
        args,
        cfg,
        [f"alpha={a:.3f}" for a in alphas],
        lambda: sweep_alpha(
            cfg, alphas, args.runs, args.scenario, cfg.seed, args.jobs, _progress
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
            cfg, args.q_list, args.runs, cfg.alpha, args.scenario, cfg.seed, args.jobs,
            _progress,
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

    p_run = sub.add_parser("run", help="run one simulation")
    add_common(p_run)
    p_run.add_argument("--q", type=float, default=None, help="entry demand probability")
    p_run.add_argument("--alpha", type=float, default=None, help="coordination weight")
    p_run.add_argument(
        "--strategy",
        choices=("hca", "backpressure", "fixed_time"),
        default=None,
        help="signal control strategy (default: hca)",
    )
    p_run.add_argument("--steps", type=int, default=None, help="simulation horizon")
    p_run.add_argument("--trace", default=None, help="write a per-step trace CSV here")
    p_run.add_argument("--out", default=None, help="write the metrics row as CSV here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep the coordination weight")
    add_common(p_sweep)
    p_sweep.add_argument("--q", type=float, default=None, help="entry demand probability")
    p_sweep.add_argument("--alpha-from", type=float, default=0.0)
    p_sweep.add_argument("--alpha-to", type=float, default=2.0)
    p_sweep.add_argument("--alpha-step", type=float, default=0.1)
    p_sweep.add_argument("--runs", type=int, default=50, help="replications per point")
    p_sweep.add_argument("--steps", type=int, default=None, help="simulation horizon")
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=_DEFAULT_JOBS,
        help=f"parallel worker processes (default: {_DEFAULT_JOBS}, all cores)",
    )
    p_sweep.add_argument("--out", default="alpha_sweep.csv", help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare control strategies")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--q-list",
        type=_q_list_arg,
        default=_q_list_arg(_DEFAULT_Q_LIST),
        help=f"comma-separated demand levels (default: {_DEFAULT_Q_LIST})",
    )
    p_cmp.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="coordination weight for the hca variant (default: scenario-tuned)",
    )
    p_cmp.add_argument("--runs", type=int, default=50, help="replications per variant")
    p_cmp.add_argument("--steps", type=int, default=None, help="simulation horizon")
    p_cmp.add_argument(
        "--jobs",
        type=int,
        default=_DEFAULT_JOBS,
        help=f"parallel worker processes (default: {_DEFAULT_JOBS}, all cores)",
    )
    p_cmp.add_argument("--out", default="strategy_compare.csv", help="output CSV path")
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
