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
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Sequence, get_type_hints

from . import __version__
from .engine import MetricsRecord, run_batch
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
    """A run inside a sweep failed; carries the rows completed before it.

    A batch of runs fails as a whole, and so does every cell with runs in
    it: the rows kept are those of the cells that ended in earlier batches.
    """

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


def _welch_t(
    mean_a: float, std_a: float, n_a: int, mean_b: float, std_b: float, n_b: int
) -> tuple[float, float | None]:
    """Welch t of ``mean A - mean B`` and its Welch-Satterthwaite df.

    With both variances zero the df is None and t is inf, -inf or 0 by the
    sign of the mean difference.
    """
    if n_a < 2 or n_b < 2:
        raise ValueError("welch_one_sided() needs at least two runs per side")
    va = std_a * std_a / n_a
    vb = std_b * std_b / n_b
    se2 = va + vb
    if se2 == 0.0:
        if mean_a > mean_b:
            return math.inf, None
        if mean_a < mean_b:
            return -math.inf, None
        return 0.0, None
    t = (mean_a - mean_b) / math.sqrt(se2)
    # Welch-Satterthwaite df from the variance shares, which sum to 1: the
    # squared variances themselves can underflow to 0 while se2 > 0.
    ra, rb = va / se2, vb / se2
    return t, 1.0 / (ra * ra / (n_a - 1) + rb * rb / (n_b - 1))


def welch_one_sided(
    mean_a: float, std_a: float, n_a: int, mean_b: float, std_b: float, n_b: int
) -> tuple[float, float]:
    """One-sided Welch t-test of ``mean A > mean B``; returns (t, p).

    Zero-variance degenerate samples collapse to p in {0, 0.5, 1} by the sign
    of the mean difference.  Only the p-value needs scipy, which is imported
    on the first call that computes one; :func:`summarize_comparison`, and so
    ``hcasim compare``, takes the t alone and never loads scipy.
    """
    t, df = _welch_t(mean_a, std_a, n_a, mean_b, std_b, n_b)
    if df is None:
        return t, 0.0 if t > 0 else 1.0 if t < 0 else 0.5
    # imported here: scipy.stats takes about 68 MB and a second to load
    from scipy.stats import t as student_t

    return t, float(student_t.sf(t, df))


@dataclass(frozen=True)
class _Plan:
    """An experiment's batches, planned when it starts: ``cells`` gives each
    cell's config and records, in cell order, and ``futures`` holds the
    pool's future of each of the ``batches`` (none without a pool)."""

    cells: Iterator[tuple[SimConfig, list[MetricsRecord]]]
    batches: int
    futures: Sequence[Future]


# The plan of the sweep or compare in progress, which each cell's run_many takes from.
_experiment_plan: ContextVar[_Plan | None] = ContextVar("experiment_plan", default=None)

# The most runs one batch holds.  Past a few dozen copies a copy-step costs
# little less (on the 4x4 grid, 22 us at 25 copies and 19 us at 100), while
# a batch's memory and the runs one failure takes down grow with its size.
_MAX_BATCH_RUNS = 50


def _batches_finished() -> tuple[int, int]:
    """``(finished, planned)`` batches of the sweep or compare in progress,
    for an ETA in the progress report of one of its cells.

    Only a pool's batches count as finished: without one, each batch runs
    when its first cell is taken, so the cells reported count them.
    """
    plan = _experiment_plan.get()
    # done(), not a count kept by done-callbacks: a result wakes its reader
    # before the future's callbacks run, so such a count can lag behind
    return sum(future.done() for future in plan.futures), plan.batches


def _cancel_later(futures: Sequence[Future], k: int, batch: Future) -> None:
    """Done-callback of batch ``k`` of ``futures``: if it failed, cancel the
    later batches that no worker has taken yet, so that none starts after
    the failure."""
    if not batch.cancelled() and batch.exception() is not None:
        for future in futures[k + 1 :]:
            future.cancel()


@contextmanager
def _planned(cells: Sequence[tuple[SimConfig, int]], runs: int, jobs: int) -> Iterator[_Plan]:
    """The plan of each ``(config, first seed)`` cell's ``runs`` seeds.

    The experiment's runs, cell after cell and seed after seed, are cut
    into contiguous batches of near-equal size: ``min(jobs, runs in all)``
    of them, so that every worker gets one, or more when that many would
    hold over ``_MAX_BATCH_RUNS`` runs each.  A batch may hold several
    cells, and parts of cells, whose configs differ in ``q``, ``alpha`` or
    strategy; it runs as one simulation of that many network copies
    (:func:`run_batch`).  With two or more batches and ``jobs``, every
    batch is submitted up front to one pool of ``min(jobs, batches)``
    workers.  A failed batch cancels the batches after it that no worker
    has taken, and on exit every batch not yet started is cancelled.
    Otherwise each batch runs here when its first cell is taken.  A cell
    takes its records from every batch that holds some of its runs, so a
    failed batch fails each cell it holds.
    """
    flat = [(config, seed0 + i) for config, seed0 in cells for i in range(runs)]
    parts = max(min(jobs, len(flat)), -(-len(flat) // _MAX_BATCH_RUNS))
    batches = [flat[len(flat) * k // parts : len(flat) * (k + 1) // parts] for k in range(parts)]
    workers = min(jobs, parts)
    # the pool forks all of its workers at the first submit
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    futures: list[Future] = []
    try:
        if pool is None:
            done = (run_batch(batch) for batch in batches)
        else:
            futures = [pool.submit(run_batch, batch) for batch in batches]
            for k, future in enumerate(futures):
                future.add_done_callback(partial(_cancel_later, futures, k))
            done = (future.result() for future in futures)
        records = (rec for batch in done for rec in batch)
        yield _Plan(((config, list(islice(records, runs))) for config, _ in cells), parts, futures)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_many(
    config: SimConfig,
    runs: int,
    base_seed: int | None = None,
    jobs: int = 1,
    on_result: Callable[[MetricsRecord], None] | None = None,
) -> list[MetricsRecord]:
    """Run ``runs`` replications seeded ``base_seed + i`` for i in 0..runs-1.

    Called alone, it cuts the seeds into contiguous batches as
    :func:`_planned` does, each run as one simulation of that many network
    copies (:func:`run_batch`), on a pool started and joined here when
    there are two or more batches and jobs.  Inside :func:`sweep_alpha` or
    :func:`compare_strategies` it collects this cell's records from the
    batches the experiment planned and submitted when it started.  Records
    come back in seed order and equal those of single runs.
    """
    check_integer("runs", runs, 1)
    check_integer("jobs", jobs, 1)
    seed0 = config.seed if base_seed is None else base_seed
    check_integer("base_seed", seed0, 0)
    plan = _experiment_plan.get()
    if plan is None:
        with _planned([(config, seed0)], runs, jobs) as alone:
            _, records = next(alone.cells)
    else:
        planned, records = next(plan.cells)
        if planned is not config or (records[0].seed, len(records)) != (seed0, runs):
            raise RuntimeError("run_many inside an experiment must take its cells in order")
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


def _run_cells(
    cells: Sequence[tuple[str, SimConfig]],
    runs: int,
    scenario: str,
    jobs: int,
    progress: Callable[[SweepResult], None] | None,
) -> list[SweepResult]:
    """One stop-delay row per ``(variant, config)`` cell, in order.

    Each cell runs ``runs`` seeds from its config's ``seed``, which all
    cells share, so rows are paired across variants.  The experiment's runs
    are cut into batches that cells share, planned and submitted to one
    pool (see :func:`_planned`) before the first cell's :func:`run_many`
    collects its records; rows and progress reports follow in cell order.
    A failed batch fails each cell it holds: the first of them raises
    :class:`SweepError` carrying the rows finished before it, those of
    earlier batches, and the batches not yet started are cancelled.  A run
    or job count that is not an integer >= 1 raises :class:`ConfigError`
    before the first cell.
    """
    check_integer("runs", runs, 1)
    check_integer("jobs", jobs, 1)
    rows: list[SweepResult] = []
    with _planned([(cfg, cfg.seed) for _, cfg in cells], runs, jobs) as plan:
        token = _experiment_plan.set(plan)
        try:
            for variant, cfg in cells:
                try:
                    records = run_many(cfg, runs, jobs=jobs)
                except Exception as exc:
                    raise SweepError(f"q={cfg.q:g} {variant}: {exc}", rows) from exc
                mean, std, lo, hi = aggregate([float(r.total_stop_delay) for r in records])
                row = SweepResult(
                    scenario, cfg.q, variant, len(records), mean, std, lo, hi, cfg.seed
                )
                rows.append(row)
                if progress is not None:
                    progress(row)
        finally:
            _experiment_plan.reset(token)
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
            t, _ = _welch_t(bp.mean, bp.std, bp.runs, hca.mean, hca.std, hca.runs)
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
