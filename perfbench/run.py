"""hcasim benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload grid16_hca --seed 1 --seconds 25 --trace 0

The workload runs in a child process of its own (``child.py``).  This
process then checks every output against computations made apart from the
program and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A failed check prints the problems on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys

from checks import (
    compare_csv_problems,
    load_refsim,
    record_problems,
    reference_problems,
    reference_run,
    row_problems,
)
from workloads import WORKLOADS, make_config, out_dir

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150


def run_child(args, result_path: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", result_path,
    ]
    # A session of its own lets a timeout kill the pool workers as well.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: workload did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: workload process exited {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def check(w, res: dict, refsim) -> list[str]:
    """Every output check of one child result."""
    import hcasim  # from the checkout's src/, which main() puts on sys.path

    problems = []
    ops = res["ops"]
    for op in ops + res.get("traced_ops", []):
        for rec in op["records"]:
            problems += record_problems(rec, w.horizon)

    first = ops[0]
    if w.kind == "run":
        rec = first["records"][0]
        problems += reference_problems(
            rec, reference_run(refsim, make_config(w, w.q_list[0], rec["seed"]))
        )
    else:
        for op in ops:
            problems += compare_problems(w, op)
        s = first["seed"]
        by_cell = {(c["q"], c["strategy"]): c["records"] for c in first["cells"]}
        for q in w.q_list:
            for variant in w.variants():
                recs = by_cell[(q, variant)]
                # one seed per cell against the reference loop
                problems += reference_problems(
                    recs[0], reference_run(refsim, make_config(w, q, s, variant))
                )
                # a pooled record equals a serial run of the same seed
                last = recs[-1]
                serial = dataclasses.asdict(hcasim.run(make_config(w, q, last["seed"], variant)))
                if serial != last:
                    problems.append(f"q={q} {variant} seed {last['seed']}: pool "
                                    f"record {last} != serial {serial}")
            # hca at alpha = 0 is back-pressure
            zero = dataclasses.asdict(hcasim.run(make_config(w, q, s, "hca", alpha=0.0)))
            if zero != by_cell[(q, "backpressure")][0]:
                problems.append(f"q={q} seed {s}: hca alpha=0 record {zero} != "
                                f"backpressure {by_cell[(q, 'backpressure')][0]}")

    if "traced_ops" in res:
        for plain, traced in zip(ops, res["traced_ops"]):
            if traced["records"] != plain["records"]:
                problems.append(f"op seed {plain['seed']}: traced records differ")
            if "csv" in plain:
                with open(plain["csv"], "rb") as a, open(traced["csv"], "rb") as b:
                    if a.read() != b.read():
                        problems.append(f"op seed {plain['seed']}: traced CSV differs")
        stops = sum(r["total_stop_delay"] for op in res["traced_ops"] for r in op["records"])
        updates = res["layers"]["vehicles.vehicle_updates"]
        if stops > updates:
            problems.append(f"traced stop delay {stops} exceeds {updates} vehicle updates")
    return problems


def compare_problems(w, op: dict) -> list[str]:
    """One compare operation's rows and CSV against its captured records."""
    problems = []
    delays: dict = {}
    for cell in op["cells"]:
        delays.setdefault(cell["q"], {})[cell["strategy"]] = [
            float(r["total_stop_delay"]) for r in cell["records"]
        ]
    if len(op["rows"]) != len(w.q_list) * 2:
        problems.append(f"op seed {op['seed']}: {len(op['rows'])} aggregated rows")
    for row in op["rows"]:
        problems += row_problems(row, delays[row["q"]][row["variant"]])
    with open(op["csv"]) as fh:
        problems += compare_csv_problems(fh.read(), delays, w.runs, op["seed"])
    return problems


def end_to_end(w, res: dict) -> dict[str, float]:
    # Median over operations of the steps each completed per second of its
    # wall time: one slow or fast stretch of the machine moves one sample.
    rates = [sum(r["horizon"] for r in op["records"]) / op["wall_s"] for op in res["ops"]]
    # getrusage gives per-process peaks: count each pool worker at the
    # largest worker's peak, an upper bound on their simultaneous sum.
    rss_kb = res["rss_self_kb"] + w.jobs * res["rss_workers_kb"]
    return {
        "steps_per_s": statistics.median(rates),
        "setup_s": statistics.median(res["setup_samples"]),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "hcasim", "__init__.py")
    ref = os.path.join(ROOT, "tests", "reference.py")
    for needed in (src, ref):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} not found; run from an hcasim checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    result_path = os.path.join(out_dir(ROOT), f"{w.name}-result.json")
    res = run_child(args, result_path)

    problems = check(w, res, load_refsim(ref))
    values = res["layers"] if args.trace else end_to_end(w, res)
    attempted = len(res["ops"]) + len(res.get("traced_ops", []))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
