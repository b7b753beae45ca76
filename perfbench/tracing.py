"""Span tracing of hcasim from outside the program.

:class:`Tracer` replaces the public functions and methods of each hcasim
module with wrappers that record one span (name, start, end, parent) per
call, plus a few counts taken at the same boundaries.  A function is
rebound in every hcasim module that holds it, so calls made through a
``from .x import f`` name are traced too.  Spans stay in memory and are
written out when the traced run ends.

Pool workers are forked from the traced process and inherit the wrappers.
Each worker starts with an empty span table and, after every top-level
call (one ``engine.run`` per task), appends its spans and counts as one
JSON line to a file of its own; :meth:`Tracer.chunks` reads them back.
"""

from __future__ import annotations

import csv
import functools
import glob
import importlib
import json
import os
import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# (module, attribute) of every function or method that gets a span.
SPANNED = (
    ("engine", "run"),
    ("engine", "Simulation.__init__"),
    ("engine", "Simulation.step"),
    ("engine", "count_stopped"),
    ("vehicles", "InjectionProcess.inject"),
    ("vehicles", "advance_all"),
    ("lanes", "compute_occupancy"),
    ("lanes", "compute_backlog"),
    ("lanes", "apply_signal_indications"),
    ("signals", "AdaptiveSelector.select"),
    ("signals", "FixedTimeSelector.select"),
    ("experiments", "run_many"),
    ("experiments", "compare_strategies"),
    ("experiments", "summarize_comparison"),
    ("experiments", "write_compare_csv"),
    ("experiments", "write_meta"),
    ("cli", "main"),
    ("scenarios", "grid_config"),
    ("scenarios", "arterial_config"),
    ("scenarios", "build_grid"),
    ("scenarios", "build_arterial"),
    ("scenarios", "derive_compatibility"),
    ("model", "SimConfig.__post_init__"),
    ("model", "validate_topology"),
    ("model", "config_digest"),
)

COUNTS = (
    "vehicle_updates",
    "coordination_calls",
    "coordination_useful",
    "phase_switches",
    "pools_started",
)


def rebind(orig, new) -> None:
    """Point every hcasim module-level name bound to ``orig`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "hcasim" or modname.startswith("hcasim."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


class Tracer:
    """In-memory span recorder for one process tree."""

    def __init__(self, worker_dir: str):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.alpha = 0.0  # weight of the adaptive selector currently selecting
        self.worker_dir = worker_dir
        self.in_worker = False
        self.main_pid = os.getpid()
        os.makedirs(worker_dir, exist_ok=True)
        for stale in glob.glob(os.path.join(worker_dir, "*.jsonl")):
            os.remove(stale)
        os.register_at_fork(after_in_child=self._enter_worker)

    # -- recording ---------------------------------------------------------

    def _enter_worker(self) -> None:
        if os.getpid() == self.main_pid:
            return
        self.in_worker = True
        self._clear()

    def _clear(self) -> None:
        for arr in (self.name_ids, self.starts, self.ends, self.parents):
            del arr[:]
        self.stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def _flush_worker(self) -> None:
        line = json.dumps(
            {
                "pid": os.getpid(),
                "name_ids": self.name_ids.tolist(),
                "starts": self.starts.tolist(),
                "ends": self.ends.tolist(),
                "parents": self.parents.tolist(),
                "counts": self.counts,
            }
        )
        with open(os.path.join(self.worker_dir, f"{os.getpid()}.jsonl"), "a") as fh:
            fh.write(line + "\n")
        self._clear()

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped to record a span; hooks run outside the span."""
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            if not stack and self.in_worker:
                self._flush_worker()
            return result

        return wrapper

    # -- hooks that take counts at span boundaries -------------------------

    def _count_updates(self, args) -> None:
        # advance_all(state, ...) moves every vehicle on the road once
        self.counts["vehicle_updates"] += args[0].vehicle_count

    def _note_alpha(self, args) -> None:
        self.alpha = args[0].alpha

    def _count_switches(self, args, result) -> None:
        before = args[3]  # select(self, topology, backlog, states)
        self.counts["phase_switches"] += sum(
            1 for old, new in zip(before, result) if old.pi != new.pi
        )

    def instrument(self) -> None:
        """Wrap every function in :data:`SPANNED` and the counted calls."""
        import hcasim.experiments
        import hcasim.signals

        hooks = {
            "vehicles.advance_all": (self._count_updates, None),
            "signals.AdaptiveSelector.select": (self._note_alpha, self._count_switches),
            "signals.FixedTimeSelector.select": (None, self._count_switches),
        }
        for modname, attr in SPANNED:
            mod = importlib.import_module(f"hcasim.{modname}")
            name = f"{modname}.{attr}"
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self.spanned(name, orig, before, after))
            else:
                orig = getattr(mod, attr)
                rebind(orig, self.spanned(name, orig, before, after))

        counts = self.counts
        coordination = hcasim.signals.coordination_priority

        @functools.wraps(coordination)
        def counted_coordination(node, phase, neighbor_states):
            value = coordination(node, phase, neighbor_states)
            counts["coordination_calls"] += 1
            if self.alpha > 0.0 and value > 0.0:
                counts["coordination_useful"] += 1
            return value

        rebind(coordination, counted_coordination)

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                counts["pools_started"] += 1
                super().__init__(*args, **kwargs)

        hcasim.experiments.ProcessPoolExecutor = CountedPool

    # -- reading back --------------------------------------------------------

    def chunks(self) -> list[dict]:
        """This process's spans and counts, then every worker flush."""
        out = [
            {
                "pid": self.main_pid,
                "name_ids": self.name_ids.tolist(),
                "starts": self.starts.tolist(),
                "ends": self.ends.tolist(),
                "parents": self.parents.tolist(),
                "counts": dict(self.counts),
            }
        ]
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "*.jsonl"))):
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh)
        return out

    def write_spans(self, path: str, chunks: list[dict]) -> None:
        """One CSV row per span; ``parent`` indexes rows of the same chunk."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("pid", "chunk", "index", "name", "start_s", "end_s", "parent"))
            for ci, ch in enumerate(chunks):
                for i, (nid, t0, t1, par) in enumerate(
                    zip(ch["name_ids"], ch["starts"], ch["ends"], ch["parents"])
                ):
                    writer.writerow((ch["pid"], ci, i, self.names[nid], f"{t0:.9f}",
                                     f"{t1:.9f}", par))


def layer_metrics(names: list[str], chunks: list[dict], main_pid: int, jobs: int,
                  wall_untraced: float, wall_traced: float) -> dict[str, float]:
    """Per-layer metrics from recorded spans and counts.

    Self time is a span's duration minus the durations of its direct
    children.  ``experiments.run_s`` sums ``engine.run`` spans recorded in
    pool workers only.
    """
    total: dict[str, float] = dict.fromkeys(names, 0.0)
    step_self = 0.0
    worker_run = 0.0
    scenario_top = 0.0
    counts = dict.fromkeys(COUNTS, 0)
    for ch in chunks:
        for key, value in ch["counts"].items():
            counts[key] += value
        nids, starts, ends, parents = ch["name_ids"], ch["starts"], ch["ends"], ch["parents"]
        durs = [e - s for s, e in zip(starts, ends)]
        child_sum = [0.0] * len(durs)
        for i, par in enumerate(parents):
            if par >= 0:
                child_sum[par] += durs[i]
        for i, nid in enumerate(nids):
            name = names[nid]
            total[name] += durs[i]
            if name == "engine.Simulation.step":
                step_self += durs[i] - child_sum[i]
            elif name == "engine.run" and ch["pid"] != main_pid:
                worker_run += durs[i]
            if name.startswith("scenarios.") and (
                parents[i] < 0 or not names[nids[parents[i]]].startswith("scenarios.")
            ):
                scenario_top += durs[i]

    updates = counts["vehicle_updates"]
    calls = counts["coordination_calls"]
    run_many_s = total["experiments.run_many"]
    return {
        "vehicles.inject_s": total["vehicles.InjectionProcess.inject"],
        "vehicles.advance_s": total["vehicles.advance_all"],
        "vehicles.vehicle_updates": updates,
        "vehicles.advance_ns_per_vehicle": (
            total["vehicles.advance_all"] * 1e9 / updates if updates else 0.0
        ),
        "lanes.occupancy_s": total["lanes.compute_occupancy"],
        "lanes.backlog_s": total["lanes.compute_backlog"],
        "lanes.signal_s": total["lanes.apply_signal_indications"],
        "signals.select_s": (
            total["signals.AdaptiveSelector.select"] + total["signals.FixedTimeSelector.select"]
        ),
        "signals.coordination_calls": calls,
        "signals.coordination_useful_ratio": (
            counts["coordination_useful"] / calls if calls else 0.0
        ),
        "signals.phase_switches": counts["phase_switches"],
        "engine.step_s": total["engine.Simulation.step"],
        "engine.step_self_s": step_self,
        "engine.count_stopped_s": total["engine.count_stopped"],
        "experiments.run_many_s": run_many_s,
        "experiments.run_s": worker_run,
        "experiments.parallel_efficiency": (
            worker_run / (jobs * run_many_s) if run_many_s else 0.0
        ),
        "experiments.pools_started": counts["pools_started"],
        "experiments.summary_s": total["experiments.summarize_comparison"],
        "cli.output_s": total["experiments.write_compare_csv"] + total["experiments.write_meta"],
        "scenarios.build_s": scenario_top,
        "model.validate_s": (
            total["model.validate_topology"] + total["model.SimConfig.__post_init__"]
        ),
        "model.config_digest_s": total["model.config_digest"],
        "trace.overhead_ratio": wall_traced / wall_untraced,
    }
