"""The benchmark's workloads and the operations each one repeats.

One operation is one unit of work a user of hcasim would start: a single
``run`` of a scenario, or one ``hcasim compare`` invocation.  Every
simulation seed is derived from the benchmark's ``--seed`` and the
operation's index, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "run" (library call) or "compare" (CLI call)
    scenario: str             # "grid" or "arterial"
    size: int                 # roads per direction, or arterial intersections
    q_list: tuple[float, ...]
    strategy: str
    alpha: float
    horizon: int
    runs: int = 1             # paired seeds per (q, variant) for compare
    jobs: int = 1
    fixed_time_split: tuple[int, ...] | None = None
    setup_reps: int = 5       # constructions timed before each operation
    trace_ops: int = 1        # operations repeated untraced and traced

    def op_seed(self, seed: int, op: int) -> int:
        """First simulation seed of operation ``op`` of a run seeded ``seed``."""
        return seed * 1000 + op * self.runs

    def variants(self) -> tuple[str, ...]:
        return ("backpressure", "hca") if self.kind == "compare" else (self.strategy,)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid16_hca",
            kind="run",
            scenario="grid",
            size=16,
            q_list=(0.1,),
            strategy="hca",
            alpha=1.0,
            horizon=1000,
            setup_reps=6,
            trace_ops=2,
        ),
        Workload(
            name="grid4_compare",
            kind="compare",
            scenario="grid",
            size=4,
            q_list=(0.05, 0.10, 0.15),
            strategy="hca",
            alpha=1.0,
            horizon=900,
            runs=4,
            jobs=2,
            setup_reps=60,
            trace_ops=2,
        ),
        Workload(
            name="arterial32_fixed",
            kind="run",
            scenario="arterial",
            size=32,
            q_list=(0.3,),
            strategy="fixed_time",
            alpha=0.25,
            horizon=3600,
            fixed_time_split=(20, 20),
            setup_reps=20,
            trace_ops=4,
        ),
    )
}


def make_config(w: Workload, q: float, seed: int, strategy: str | None = None,
                alpha: float | None = None):
    """The ``SimConfig`` the workload runs at demand ``q`` and ``seed``.

    For ``grid4_compare`` this is the config ``hcasim compare`` builds for
    each (q, variant) cell: the scenario defaults, the tuned weight, and the
    strategy replaced per variant.
    """
    from hcasim import arterial_config, grid_config

    strategy = strategy or w.strategy
    alpha = w.alpha if alpha is None else alpha
    if w.scenario == "grid":
        return grid_config(q=q, alpha=alpha, seed=seed, strategy=strategy,
                           horizon=w.horizon, roads_per_direction=w.size)
    extra = {"fixed_time_split": w.fixed_time_split} if w.fixed_time_split else {}
    return arterial_config(q=q, alpha=alpha, seed=seed, strategy=strategy,
                           horizon=w.horizon, intersections=w.size, **extra)


def compare_argv(w: Workload, seed: int, out: str) -> list[str]:
    """Arguments of the ``hcasim compare`` call one operation makes."""
    return [
        "compare",
        "--scenario", w.scenario,
        "--q-list", ",".join(f"{q:g}" for q in w.q_list),
        "--runs", str(w.runs),
        "--steps", str(w.horizon),
        "--seed", str(seed),
        "--jobs", str(w.jobs),
        "--out", out,
    ]


def out_dir(root: str) -> str:
    """Directory for the benchmark's output files (ignored by git)."""
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path
