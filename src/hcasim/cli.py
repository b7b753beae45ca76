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
import os
import sys
from dataclasses import replace

from .engine import MetricsRecord, run
from .experiments import (
    SweepError,
    compare_strategies,
    summarize_comparison,
    sweep_alpha,
    write_compare_csv,
    write_meta,
    write_metrics_csv,
    write_sweep_csv,
)
from .model import ConfigError, SimConfig, SimulationError
from .scenarios import arterial_config, grid_config, load_config, tuned_alpha

_DEFAULT_Q_LIST = "0.05,0.075,0.1,0.125,0.15"
_DEFAULT_JOBS = os.cpu_count() or 1


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _scenario_arg(value: str) -> str:
    if value in ("grid", "arterial") or value.startswith("file:"):
        return value
    raise argparse.ArgumentTypeError(
        f"expected grid, arterial or file:PATH, got {value!r}"
    )


def _q_list_arg(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated demand levels, got {value!r}"
        ) from None


def _base_config(scenario: str, args: argparse.Namespace) -> SimConfig:
    """Resolve --scenario plus overriding flags into a configuration."""
    if scenario.startswith("file:"):
        path = scenario[5:]
        try:
            cfg = load_config(path)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        overrides = {}
        if getattr(args, "q", None) is not None:
            overrides["q"] = args.q
        if getattr(args, "alpha", None) is not None:
            overrides["alpha"] = args.alpha
        if getattr(args, "strategy", None) is not None:
            overrides["strategy"] = args.strategy
        if getattr(args, "steps", None) is not None:
            overrides["horizon"] = args.steps
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        return replace(cfg, **overrides) if overrides else cfg
    make = grid_config if scenario == "grid" else arterial_config
    q, steps, seed = (getattr(args, k, None) for k in ("q", "steps", "seed"))
    return make(
        q=0.1 if q is None else q,
        alpha=getattr(args, "alpha", None),
        strategy=getattr(args, "strategy", None) or "hca",
        horizon=3600 if steps is None else steps,
        seed=0 if seed is None else seed,
    )


def _print_metrics(rec: MetricsRecord) -> None:
    print(f"total_stop_delay={rec.total_stop_delay}")
    print(f"vehicles_injected={rec.vehicles_injected}")
    print(f"vehicles_removed={rec.vehicles_removed}")
    print(f"vehicles_in_network={rec.vehicles_in_network}")
    print(f"horizon={rec.horizon}")
    print(f"seed={rec.seed}")
    print(f"config_digest={rec.config_digest}")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _base_config(args.scenario, args)
    rec = run(cfg, trace=args.trace)
    _print_metrics(rec)
    if args.out:
        write_metrics_csv(args.out, [rec])
    return 0


def _alpha_grid(start: float, stop: float, step: float) -> list[float]:
    if step <= 0:
        raise ConfigError(f"alpha step {step}: must be > 0")
    if stop < start:
        raise ConfigError(f"empty alpha range [{start}, {stop}]")
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


def _warn_degenerate_std(runs: int) -> None:
    if runs == 1:
        print("note: std is degenerate (0 by convention) with runs=1", file=sys.stderr)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _base_config(args.scenario, args)
    alphas = _alpha_grid(args.alpha_from, args.alpha_to, args.alpha_step)
    seed0 = cfg.seed
    variants = [f"alpha={a:.3f}" for a in alphas]
    _warn_degenerate_std(args.runs)
    try:
        rows = sweep_alpha(
            cfg,
            alphas,
            args.runs,
            scenario=args.scenario,
            base_seed=seed0,
            jobs=args.jobs,
            progress=_progress,
        )
    except SweepError as exc:
        if exc.partial:
            write_sweep_csv(args.out, exc.partial)
            write_meta(
                f"{args.out}.meta.json",
                cfg,
                args.scenario,
                args.runs,
                seed0,
                variants,
                partial=True,
            )
            print(
                f"wrote {len(exc.partial)} partial rows to {args.out}",
                file=sys.stderr,
            )
        raise
    write_sweep_csv(args.out, rows)
    write_meta(f"{args.out}.meta.json", cfg, args.scenario, args.runs, seed0, variants)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _base_config(args.scenario, args)
    alpha = args.alpha if args.alpha is not None else (
        cfg.alpha if args.scenario.startswith("file:") else tuned_alpha(args.scenario)
    )
    seed0 = cfg.seed
    variants = ["backpressure", f"hca(alpha={alpha:g})"]
    _warn_degenerate_std(args.runs)
    try:
        rows = compare_strategies(
            cfg,
            args.q_list,
            args.runs,
            alpha,
            scenario=args.scenario,
            base_seed=seed0,
            jobs=args.jobs,
            progress=_progress,
        )
    except SweepError as exc:
        if exc.partial:
            pairs = summarize_comparison(exc.partial)
            write_compare_csv(args.out, pairs)
            write_meta(
                f"{args.out}.meta.json",
                cfg,
                args.scenario,
                args.runs,
                seed0,
                variants,
                partial=True,
            )
            print(
                f"wrote {len(pairs)} partial rows to {args.out}",
                file=sys.stderr,
            )
        raise
    pairs = summarize_comparison(rows)
    write_compare_csv(args.out, pairs)
    write_meta(f"{args.out}.meta.json", cfg, args.scenario, args.runs, seed0, variants)
    print(f"wrote {len(pairs)} rows to {args.out}")
    return 0


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
