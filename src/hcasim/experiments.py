"""Multi-run experiments: coordination-weight sweeps and strategy comparisons.

Runs are paired across variants by seeding: run ``i`` of every variant uses
``base_seed + i``, and arrival draws live on their own substream, so two
controllers compared on the same run index face the same offered demand.
Aggregates use exact summation and the sample standard deviation; the
one-sided Welch test decides whether one variant's mean stop delay really
sits below another's.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence, get_type_hints

from scipy.stats import t as _student_t

from . import __version__
from .engine import MetricsRecord, run
from .model import ConfigError, SimConfig, config_digest


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
    return t, float(_student_t.sf(t, df))


def run_many(
    config: SimConfig,
    runs: int,
    base_seed: int | None = None,
    jobs: int = 1,
    on_result: Callable[[MetricsRecord], None] | None = None,
) -> list[MetricsRecord]:
    """Run ``runs`` replications seeded ``base_seed + i`` for i in 0..runs-1."""
    if runs < 1:
        raise ValueError(f"runs={runs}: must be >= 1")
    seed0 = config.seed if base_seed is None else base_seed
    configs = [replace(config, seed=seed0 + i) for i in range(runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run, configs, chunksize=1))
        if on_result is not None:
            for rec in records:
                on_result(rec)
        return records
    records = []
    for cfg in configs:
        rec = run(cfg)
        records.append(rec)
        if on_result is not None:
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
    base_seed: int | None,
    jobs: int,
    progress: Callable[[SweepResult], None] | None,
) -> list[SweepResult]:
    """One stop-delay row per ``(variant, config)`` cell, in order.

    Every cell runs the same ``runs`` seeds, so rows are paired across
    variants.  A failed cell raises :class:`SweepError` carrying the rows
    finished before it.
    """
    rows: list[SweepResult] = []
    for variant, cfg in cells:
        seed0 = cfg.seed if base_seed is None else base_seed
        try:
            records = run_many(cfg, runs, seed0, jobs)
        except Exception as exc:
            raise SweepError(f"q={cfg.q:g} {variant}: {exc}", rows) from exc
        mean, std, lo, hi = aggregate([float(r.total_stop_delay) for r in records])
        row = SweepResult(scenario, cfg.q, variant, len(records), mean, std, lo, hi, seed0)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def sweep_alpha(
    config: SimConfig,
    alphas: Sequence[float],
    runs: int,
    scenario: str,
    base_seed: int | None = None,
    jobs: int = 1,
    progress: Callable[[SweepResult], None] | None = None,
) -> list[SweepResult]:
    """Mean stop delay of the adaptive controller at each coordination weight."""
    cells = [(f"alpha={a:.3f}", replace(config, alpha=a, strategy="hca")) for a in alphas]
    _check_distinct([variant for variant, _ in cells], "variant")
    return _run_cells(cells, runs, scenario, base_seed, jobs, progress)


def compare_strategies(
    config: SimConfig,
    q_list: Sequence[float],
    runs: int,
    alpha: float,
    scenario: str,
    base_seed: int | None = None,
    jobs: int = 1,
    progress: Callable[[SweepResult], None] | None = None,
) -> list[SweepResult]:
    """Paired comparison of pure pressure control against the coordinated one.

    For every demand level the ``backpressure`` variant and the ``hca``
    variant (at the given weight) run on identical seed sequences.
    """
    _check_distinct([f"q={q:.6f}" for q in q_list], "demand level")
    cells: list[tuple[str, SimConfig]] = []
    for q in q_list:
        cells.append(("backpressure", replace(config, q=q, strategy="backpressure")))
        cells.append(("hca", replace(config, q=q, strategy="hca", alpha=alpha)))
    return _run_cells(cells, runs, scenario, base_seed, jobs, progress)


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


def _columns(row_type: type) -> list[tuple[str, type]]:
    hints = get_type_hints(row_type)
    return [(f.name, hints[f.name]) for f in fields(row_type)]


def _write_rows(path: str, row_type: type, rows: Sequence) -> None:
    """One CSV row per record, the header taken from the dataclass fields.

    Float fields get fixed six-decimal formatting, so equal results give
    equal bytes; int and str fields are written as they are.
    """
    cols = _columns(row_type)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(name for name, _ in cols)
        for r in rows:
            writer.writerow(
                f"{getattr(r, name):.6f}" if kind is float else getattr(r, name)
                for name, kind in cols
            )


def _read_rows(path: str, row_type: type) -> list:
    """Parse a file written by :func:`_write_rows`; a foreign header is an error."""
    cols = _columns(row_type)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != [name for name, _ in cols]:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        return [row_type(**{name: kind(rec[name]) for name, kind in cols}) for rec in reader]


def write_sweep_csv(path: str, rows: Sequence[SweepResult]) -> None:
    """Write sweep rows with fixed six-decimal formatting (stable bytes)."""
    _write_rows(path, SweepResult, rows)


def read_sweep_csv(path: str) -> list[SweepResult]:
    """Parse a file written by :func:`write_sweep_csv`."""
    return _read_rows(path, SweepResult)


def write_compare_csv(path: str, rows: Sequence[ComparisonRow]) -> None:
    """Write paired comparison rows with fixed six-decimal formatting."""
    _write_rows(path, ComparisonRow, rows)


def read_compare_csv(path: str) -> list[ComparisonRow]:
    """Parse a file written by :func:`write_compare_csv`."""
    return _read_rows(path, ComparisonRow)


def write_metrics_csv(path: str, records: Sequence[MetricsRecord]) -> None:
    """Write end-of-run metric records, one row per run."""
    _write_rows(path, MetricsRecord, records)


def write_meta(
    path: str,
    config: SimConfig,
    scenario: str,
    runs: int,
    base_seed: int,
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
        "base_seed": base_seed,
        "seeds": [base_seed, base_seed + runs - 1],
        "variants": list(variants),
        "partial": partial,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
