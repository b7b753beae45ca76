"""The measuring process: runs one workload alone and reports raw results.

``run.py`` starts this script in a process of its own, so the peak
resident memory it reports belongs to the workload and its pool workers
only.  The script writes one JSON document to ``--result``; checking and
reporting happen back in ``run.py``.

Untraced mode (``--trace 0``): repeat operations until ``--seconds`` have
elapsed, each preceded by a batch of ``setup_reps`` timed scenario
constructions.

Traced mode (``--trace 1``): run ``trace_ops`` operations untraced, then
the same operations again under :class:`tracing.Tracer`, and report the
per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hcasim  # noqa: E402
import hcasim.cli  # noqa: E402
import hcasim.experiments  # noqa: E402

from tracing import Tracer, layer_metrics, rebind  # noqa: E402
from workloads import WORKLOADS, Workload, compare_argv, make_config, out_dir  # noqa: E402


class Capture:
    """Keeps what ``hcasim compare`` computes on the way to its CSV.

    ``experiments.run_many`` is wrapped to keep each (q, variant) cell's
    per-run records, and ``summarize_comparison`` to keep the aggregated
    rows it is given.
    """

    def __init__(self):
        self.cells: list[tuple] = []
        self.rows: list = []
        run_many = hcasim.experiments.run_many
        summarize = hcasim.experiments.summarize_comparison

        def capturing_run_many(config, runs, base_seed=None, jobs=1, on_result=None):
            records = run_many(config, runs, base_seed, jobs, on_result)
            self.cells.append((config, records))
            return records

        def capturing_summarize(rows):
            self.rows.extend(rows)
            return summarize(rows)

        rebind(run_many, capturing_run_many)
        rebind(summarize, capturing_summarize)

    def take(self) -> tuple[list, list]:
        cells, rows = self.cells, self.rows
        self.cells, self.rows = [], []
        return cells, rows


def run_op(w: Workload, seed: int, op: int, out: str, capture: Capture, tag: str) -> dict:
    """One operation, timed; returns its records and whatever was captured."""
    s = w.op_seed(seed, op)
    if w.kind == "run":
        t0 = perf_counter()
        rec = hcasim.run(make_config(w, w.q_list[0], s))
        wall = perf_counter() - t0
        return {"seed": s, "wall_s": wall, "records": [dataclasses.asdict(rec)]}

    csv_path = os.path.join(out, f"{w.name}-{tag}{op}.csv")
    t0 = perf_counter()
    code = hcasim.cli.main(compare_argv(w, s, csv_path))
    wall = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"hcasim compare exited {code}")
    cells, rows = capture.take()
    return {
        "seed": s,
        "wall_s": wall,
        "records": [dataclasses.asdict(r) for _, recs in cells for r in recs],
        "cells": [
            {
                "q": cfg.q,
                "strategy": cfg.strategy,
                "alpha": cfg.alpha,
                "records": [dataclasses.asdict(r) for r in recs],
            }
            for cfg, recs in cells
        ],
        "rows": [dataclasses.asdict(r) for r in rows],
        "csv": csv_path,
    }


def time_setup(w: Workload, seed: int) -> list[float]:
    """Seconds per scenario build plus ``Simulation`` construction.

    The first construction of a batch warms caches and is left out.
    """
    samples = []
    for _ in range(w.setup_reps + 1):
        t0 = perf_counter()
        hcasim.Simulation(make_config(w, w.q_list[0], seed))
        samples.append(perf_counter() - t0)
    return samples[1:]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    out = out_dir(ROOT)
    capture = Capture()
    result: dict = {"workload": w.name, "seed": args.seed, "trace": args.trace}

    if not args.trace:
        # Set-up batches alternate with operations so that both sample
        # the machine over the same stretch of time.
        setup: list[float] = []
        ops = []
        t_start = perf_counter()
        while not ops or perf_counter() - t_start < args.seconds:
            setup += time_setup(w, args.seed)
            ops.append(run_op(w, args.seed, len(ops), out, capture, "u"))
        result["setup_samples"] = setup
        result["ops"] = ops
        result["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["rss_workers_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        untraced = [run_op(w, args.seed, i, out, capture, "u") for i in range(w.trace_ops)]
        tracer = Tracer(os.path.join(out, "trace-workers"))
        tracer.instrument()
        traced = [run_op(w, args.seed, i, out, capture, "t") for i in range(w.trace_ops)]
        chunks = tracer.chunks()
        tracer.write_spans(os.path.join(out, f"{w.name}-spans.csv"), chunks)
        result["ops"] = untraced
        result["traced_ops"] = traced
        result["layers"] = layer_metrics(
            tracer.names,
            chunks,
            tracer.main_pid,
            w.jobs,
            wall_untraced=sum(op["wall_s"] for op in untraced),
            wall_traced=sum(op["wall_s"] for op in traced),
        )

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
