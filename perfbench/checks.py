"""Output checks, computed apart from the program under test.

Every function returns a list of problems; an empty list means the output
passed.  Records and rows arrive as plain dicts (``dataclasses.asdict`` of
``MetricsRecord`` and ``SweepResult``).  Statistics are recomputed with
``statistics`` and ``scipy.stats``, never with hcasim's own helpers.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import math
import statistics

from scipy.stats import ttest_ind

RECORD_FIELDS = (
    "total_stop_delay",
    "vehicles_injected",
    "vehicles_removed",
    "vehicles_in_network",
    "horizon",
)
# The compare CSV rounds to six decimals.
CSV_TOL = 5e-7


def record_problems(rec: dict, horizon: int) -> list[str]:
    """Conservation, horizon and sign of one ``MetricsRecord``."""
    out = []
    tag = f"seed {rec['seed']}"
    if rec["vehicles_injected"] != rec["vehicles_removed"] + rec["vehicles_in_network"]:
        out.append(
            f"{tag}: injected {rec['vehicles_injected']} != removed "
            f"{rec['vehicles_removed']} + in network {rec['vehicles_in_network']}"
        )
    if rec["horizon"] != horizon:
        out.append(f"{tag}: horizon {rec['horizon']} != configured {horizon}")
    if rec["total_stop_delay"] < 0:
        out.append(f"{tag}: negative total_stop_delay {rec['total_stop_delay']}")
    return out


def load_refsim(path: str):
    """The independent step loop ``RefSim`` from ``tests/reference.py``."""
    spec = importlib.util.spec_from_file_location("hcasim_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.RefSim


def reference_run(refsim, cfg) -> dict:
    """Metrics of ``RefSim`` on ``cfg``, plus the vehicle updates it made.

    One vehicle update is one vehicle moved by one step; a step moves every
    vehicle on the road after that step's arrivals were placed.
    """
    sim = refsim(
        cfg.topology,
        v_max=cfg.v_max,
        p=cfg.p,
        alpha=cfg.alpha,
        q=cfg.q,
        intensities=cfg.entry_intensities,
        seed=cfg.seed,
        strategy=cfg.strategy,
        min_green=cfg.min_green,
        stop_window=cfg.stop_window,
        fixed_split=cfg.fixed_time_split,
    )
    updates = 0
    for _ in range(cfg.horizon):
        before = sim.metrics()
        sim.step()
        updates += before["vehicles_in_network"] + (
            sim.metrics()["vehicles_injected"] - before["vehicles_injected"]
        )
    out = sim.metrics()
    out["vehicle_updates"] = updates
    return out


def reference_problems(rec: dict, ref: dict) -> list[str]:
    """Agreement of one record with the reference run of its config and seed."""
    out = [
        f"seed {rec['seed']}: {key} {rec[key]} != reference {ref[key]}"
        for key in RECORD_FIELDS
        if rec[key] != ref[key]
    ]
    if rec["total_stop_delay"] > ref["vehicle_updates"]:
        out.append(
            f"seed {rec['seed']}: total_stop_delay {rec['total_stop_delay']} exceeds "
            f"{ref['vehicle_updates']} vehicle updates"
        )
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def row_problems(row: dict, values: list[float]) -> list[str]:
    """A ``SweepResult`` row against the per-run stop delays it aggregates."""
    tag = f"q={row['q']:g} {row['variant']}"
    if row["runs"] != len(values):
        return [f"{tag}: runs {row['runs']} != {len(values)} records"]
    expect = {
        "mean": statistics.mean(values),
        "std": statistics.stdev(values) if len(values) > 1 else 0.0,
        "min": min(values),
        "max": max(values),
    }
    return [
        f"{tag}: {key} {row[key]!r} != recomputed {x!r}"
        for key, x in expect.items()
        if not _close(row[key], x)
    ]


def compare_csv_problems(text: str, delays: dict[float, dict[str, list[float]]],
                         runs: int, base_seed: int) -> list[str]:
    """The compare CSV against stop delays per q and variant.

    Recomputes both variants' mean and std, the relative reduction and the
    Welch t (``scipy.stats.ttest_ind`` with ``equal_var=False``).
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    if len(rows) != len(delays):
        out.append(f"compare CSV has {len(rows)} rows for {len(delays)} demand levels")
    for row in rows:
        q = float(row["q"])
        match = [k for k in delays if abs(k - q) <= CSV_TOL]
        if len(match) != 1:
            out.append(f"compare CSV row q={row['q']} matches no demand level")
            continue
        bp, hca = delays[match[0]]["backpressure"], delays[match[0]]["hca"]
        bp_mean, hca_mean = statistics.mean(bp), statistics.mean(hca)
        expect = {
            "backpressure_mean": bp_mean,
            "backpressure_std": statistics.stdev(bp),
            "hca_mean": hca_mean,
            "hca_std": statistics.stdev(hca),
            "reduction": (bp_mean - hca_mean) / bp_mean,
            "welch_t": float(ttest_ind(bp, hca, equal_var=False).statistic),
        }
        for key, x in expect.items():
            if not abs(float(row[key]) - x) <= CSV_TOL + 1e-9 * max(1.0, abs(x)):
                out.append(f"q={row['q']}: {key} {row[key]} != recomputed {x:.9f}")
        if int(row["runs"]) != runs or int(row["base_seed"]) != base_seed:
            out.append(f"q={row['q']}: runs/base_seed {row['runs']}/{row['base_seed']}")
    return out
