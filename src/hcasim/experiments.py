"""Multi-run experiments: coordination-weight sweeps and strategy comparisons.

Runs are paired across variants by seeding: run ``i`` of every variant uses
the config's ``seed + i``, and arrival draws live on their own substream,
so two controllers compared on the same run index face the same offered
demand.
Aggregates use exact summation and the sample standard deviation; the
one-sided Welch test decides whether one variant's mean stop delay really
sits below another's.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Iterator, Sequence, get_type_hints

from . import __version__
from .engine import MetricsRecord, run_seeds
from .model import ConfigError, SimConfig, check_integer, config_digest


@dataclass(frozen=True)
class SweepResult:
    """Aggregated stop delay of one variant at one demand level."""

    scenario: str
    q: float
    variant: str
    runs: int
    mean: float
    std: float
    min: float
    max: float
    base_seed: int


@dataclass(frozen=True)
class ComparisonRow:
    """Paired strategies at one demand level, with the relative reduction
    (positive when coordination lowered mean stop delay) and the one-sided
    Welch t statistic for that reduction."""

    scenario: str
    q: float
    runs: int
    backpressure_mean: float
    backpressure_std: float
    hca_mean: float
    hca_std: float
    reduction: float
    welch_t: float
    base_seed: int


class SweepError(RuntimeError):
    """A run inside a sweep failed; carries the rows completed before it."""

    def __init__(self, message: str, partial: list[SweepResult]):
        super().__init__(message)
        self.partial = partial


def aggregate(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(mean, sample std, min, max) of a non-empty sample, exactly summed."""
    n = len(values)
    if n == 0:
        raise ValueError("aggregate() needs at least one value")
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1)) if n > 1 else 0.0
    return mean, std, min(values), max(values)


def welch_one_sided(
    mean_a: float, std_a: float, n_a: int, mean_b: float, std_b: float, n_b: int
) -> tuple[float, float]:
    """One-sided Welch t-test of ``mean A > mean B``; returns (t, p).

    Zero-variance degenerate samples collapse to p in {0, 0.5, 1} by the sign
    of the mean difference.
    """
    if n_a < 2 or n_b < 2:
        raise ValueError("welch_one_sided() needs at least two runs per side")
    va = std_a * std_a / n_a
    vb = std_b * std_b / n_b
    se2 = va + vb
    if se2 == 0.0:
        if mean_a > mean_b:
            return math.inf, 0.0
        if mean_a < mean_b:
            return -math.inf, 1.0
        return 0.0, 0.5
    t = (mean_a - mean_b) / math.sqrt(se2)
    # Welch-Satterthwaite df from the variance shares, which sum to 1: the
    # squared variances themselves can underflow to 0 while se2 > 0.
    ra, rb = va / se2, vb / se2
    df = 1.0 / (ra * ra / (n_a - 1) + rb * rb / (n_b - 1))
    # imported here: scipy.stats is slow to load and only the p-value needs it
    from scipy.stats import t as student_t

    return t, float(student_t.sf(t, df))


def _check_counts(runs: int, jobs: int) -> None:
    for name, count in (("runs", runs), ("jobs", jobs)):
        if count < 1:
            raise ValueError(f"{name}={count}: must be >= 1")


# The pool of the sweep or compare in progress, which run_many submits to.
_experiment_pool: ContextVar[Executor | None] = ContextVar("experiment_pool", default=None)


def run_many(
    config: SimConfig,
    runs: int,
    base_seed: int | None = None,
    jobs: int = 1,
    on_result: Callable[[MetricsRecord], None] | None = None,
) -> list[MetricsRecord]:
    """Run ``runs`` replications seeded ``base_seed + i`` for i in 0..runs-1.

    The seeds are split into ``min(jobs, runs)`` contiguous batches, each run
    as one simulation of that many network copies (:func:`run_seeds`), on as
    many worker processes when there are two or more.  Called alone, it
    starts and joins a pool of its own; inside :func:`sweep_alpha` or
    :func:`compare_strategies` it submits to the one pool the experiment
    keeps for all of its cells.  Records come back in seed order and equal
    those of single runs.
    """
    _check_counts(runs, jobs)
    seed0 = config.seed if base_seed is None else base_seed
    check_integer("base_seed", seed0, 0)
    workers = min(jobs, runs)
    cuts = [seed0 + runs * k // workers for k in range(workers + 1)]
    batches = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    run_batch = partial(run_seeds, config)
    shared = _experiment_pool.get()
    if workers == 1:
        done = [run_batch(batches[0])]
    elif shared is not None:
        done = list(shared.map(run_batch, batches, chunksize=1))
    else:
        # the pool forks all of its workers at the first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_batch, batches, chunksize=1))
    records = [rec for batch in done for rec in batch]
    if on_result is not None:
        for rec in records:
            on_result(rec)
    return records


def _check_distinct(keys: Sequence[str], what: str) -> None:
    """Reject a repeated row key: its rows could not be told apart."""
    seen: set[str] = set()
    for key in keys:
        if key in seen:
            raise ConfigError(f"{what} {key} repeats: the CSV would hold two rows under it")
        seen.add(key)


@contextmanager
def _shared_pool(workers: int) -> Iterator[None]:
    """Within the block, every :func:`run_many` submits to one pool of
    ``workers`` processes, started here when ``workers`` is two or more."""
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        token = _experiment_pool.set(pool)
        try:
            yield
        finally:
            _experiment_pool.reset(token)


def _run_cells(
    cells: Sequence[tuple[str, SimConfig]],
    runs: int,
    scenario: str,
    jobs: int,
    progress: Callable[[SweepResult], None] | None,
) -> list[SweepResult]:
    """One stop-delay row per ``(variant, config)`` cell, in order.

    Each cell runs ``runs`` seeds from its config's ``seed``, which all
    cells share, so rows are paired across variants.  With two or more
    workers, one pool of ``min(jobs, runs)`` serves every cell's
    :func:`run_many`.  A failed cell raises :class:`SweepError` carrying the
    rows finished before it; a bad run or job count raises
    :class:`ValueError` before the first cell.
    """
    _check_counts(runs, jobs)
    rows: list[SweepResult] = []
    with _shared_pool(min(jobs, runs)):
        for variant, cfg in cells:
            try:
                records = run_many(cfg, runs, jobs=jobs)
            except Exception as exc:
                raise SweepError(f"q={cfg.q:g} {variant}: {exc}", rows) from exc
            mean, std, lo, hi = aggregate([float(r.total_stop_delay) for r in records])
            row = SweepResult(scenario, cfg.q, variant, len(records), mean, std, lo, hi, cfg.seed)
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows


def sweep_alpha(
    config: SimConfig,
    alphas: Sequence[float],
    runs: int,
    scenario: str,
    jobs: int = 1,
    progress: Callable[[SweepResult], None] | None = None,
) -> list[SweepResult]:
    """Mean stop delay of the adaptive controller at each coordination weight,
    each over ``runs`` seeds from ``config.seed``."""
    cells = [(f"alpha={a:.3f}", replace(config, alpha=a, strategy="hca")) for a in alphas]
    _check_distinct([variant for variant, _ in cells], "variant")
    return _run_cells(cells, runs, scenario, jobs, progress)


def compare_strategies(
    config: SimConfig,
    q_list: Sequence[float],
    runs: int,
    scenario: str,
    jobs: int = 1,
    progress: Callable[[SweepResult], None] | None = None,
) -> list[SweepResult]:
    """Paired comparison of pure pressure control against the coordinated one.

    For every demand level the ``backpressure`` variant and the ``hca``
    variant (at ``config.alpha``) run ``runs`` seeds from ``config.seed``.
    """
    _check_distinct([f"q={q:.6f}" for q in q_list], "demand level")
    cells: list[tuple[str, SimConfig]] = []
    for q in q_list:
        cells.append(("backpressure", replace(config, q=q, strategy="backpressure")))
        cells.append(("hca", replace(config, q=q, strategy="hca")))
    return _run_cells(cells, runs, scenario, jobs, progress)


def summarize_comparison(rows: Sequence[SweepResult]) -> list[ComparisonRow]:
    """Pair backpressure/hca sweep rows per demand level.

    Incomplete pairs (a sweep aborted between the two variants of a q) are
    dropped.  reduction = (bp - hca) / bp, zero when the baseline mean is
    zero; welch_t is NaN for single-run cells where the test is undefined.
    """
    by_q: dict[float, dict[str, SweepResult]] = {}
    for r in rows:
        by_q.setdefault(r.q, {})[r.variant] = r
    out: list[ComparisonRow] = []
    for q in sorted(by_q):
        pair = by_q[q]
        if "backpressure" not in pair or "hca" not in pair:
            continue
        bp, hca = pair["backpressure"], pair["hca"]
        reduction = 0.0 if bp.mean == 0.0 else (bp.mean - hca.mean) / bp.mean
        if bp.runs >= 2 and hca.runs >= 2:
            t, _ = welch_one_sided(bp.mean, bp.std, bp.runs, hca.mean, hca.std, hca.runs)
        else:
            t = math.nan
        out.append(
            ComparisonRow(
                scenario=bp.scenario,
                q=q,
                runs=bp.runs,
                backpressure_mean=bp.mean,
                backpressure_std=bp.std,
                hca_mean=hca.mean,
                hca_std=hca.std,
                reduction=reduction,
                welch_t=t,
                base_seed=bp.base_seed,
            )
        )
    return out


def _write_rows(path: str, row_type: type, rows: Sequence) -> None:
    """One CSV row per record, the header taken from the dataclass fields.

    Float fields get fixed six-decimal formatting, so equal results give
    equal bytes; int and str fields are written as they are.
    """
    hints = get_type_hints(row_type)
    cols = [(f.name, hints[f.name]) for f in fields(row_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(name for name, _ in cols)
        for r in rows:
            writer.writerow(
                f"{getattr(r, name):.6f}" if kind is float else getattr(r, name)
                for name, kind in cols
            )


def write_sweep_csv(path: str, rows: Sequence[SweepResult]) -> None:
    """Write sweep rows with fixed six-decimal formatting (stable bytes)."""
    _write_rows(path, SweepResult, rows)


def write_compare_csv(path: str, rows: Sequence[ComparisonRow]) -> None:
    """Write paired comparison rows with fixed six-decimal formatting."""
    _write_rows(path, ComparisonRow, rows)


def write_metrics_csv(path: str, records: Sequence[MetricsRecord]) -> None:
    """Write end-of-run metric records, one row per run."""
    _write_rows(path, MetricsRecord, records)


def write_meta(
    path: str,
    config: SimConfig,
    scenario: str,
    runs: int,
    variants: Sequence[str],
    partial: bool = False,
) -> None:
    """Companion provenance file for a results CSV (deterministic JSON)."""
    payload = {
        "code_version": __version__,
        "scenario": scenario,
        "config_digest": config_digest(config),
        "horizon": config.horizon,
        "runs": runs,
        "base_seed": config.seed,
        "seeds": [config.seed, config.seed + runs - 1],
        "variants": list(variants),
        "partial": partial,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
