"""What the benchmark in ``perfbench/`` relies on from hcasim.

The span tracer wraps hcasim functions by name and the compare workload
rebinds ``run_many`` with a wrapper of a fixed signature; a rename or a
signature change would break ``perfbench/run.py --trace 1`` without any
test of the package noticing.  The tracer module is only loaded here,
never instrumented, because instrumenting rebinds hcasim globally.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import hcasim.experiments
import hcasim.signals
from hcasim.experiments import run_many

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for modname, attr in _load_tracing().SPANNED:
        obj = importlib.import_module(f"hcasim.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"hcasim.{modname}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj)
    # counted by the tracer outside its spans
    assert callable(hcasim.signals.coordination_priority)
    assert callable(hcasim.experiments.ProcessPoolExecutor)


def test_run_many_positional_signature():
    params = list(inspect.signature(run_many).parameters)
    assert params == ["config", "runs", "base_seed", "jobs", "on_result"]
