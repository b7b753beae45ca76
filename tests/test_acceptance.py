"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Criteria 5-7 are statistical claims about coordinated control beating pure
pressure control on the built-in benchmarks; they run the full paired
protocol and report measured reductions in their verdict lines.  Criterion 7
defaults to a reduced weight grid with fewer replications; set
HCASIM_ACCEPTANCE_FULL=1 for the full 21-point sweep at 50 runs per point.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import replace

from hcasim import (
    IntersectionDescriptor,
    MetricsRecord,
    NetworkTopology,
    SimConfig,
    Simulation,
    arterial_config,
    compare_strategies,
    grid_config,
    run,
    summarize_comparison,
    sweep_alpha,
    welch_one_sided,
)
from hcasim.cli import main as cli_main
from hcasim.model import IntersectionState, Level3State
from hcasim.signals import AdaptiveSelector
from conftest import ring_simulation
from netgen import random_config

FULL = os.environ.get("HCASIM_ACCEPTANCE_FULL") == "1"
# results do not depend on the worker count, so 5-7 use every core
JOBS = os.cpu_count() or 1


def _report(num: int, name: str, ok: bool, details: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f" - {details}" if details else ""
    print(f"ACCEPTANCE {num} ({name}): {verdict}{tail}")


# -- 1 ------------------------------------------------------------------------


def test_acceptance_1_pressure_argmax_oracle():
    # independent oracle: integer backlog sums, max with incumbent-first ties
    rng = random.Random(20260815)
    mismatches = 0
    start = time.perf_counter()
    for _ in range(1000):
        n_phases = rng.randint(2, 4)
        lanes = list(range(rng.randint(n_phases, 9)))
        rng.shuffle(lanes)
        cuts = sorted(rng.sample(range(1, len(lanes)), n_phases - 1))
        phases, prev = [], 0
        for c in cuts + [len(lanes)]:
            phases.append(tuple(lanes[prev:c]))
            prev = c
        node = IntersectionDescriptor(
            tuple(sorted(lanes)), tuple(phases), (), frozenset()
        )
        backlog_int = [rng.randint(-3, 3) for _ in lanes]
        incumbent = rng.randrange(n_phases)
        tau = rng.randint(0, 50)

        sums = [sum(backlog_int[l] for l in ph) for ph in phases]
        top = max(sums)
        want_pi = incumbent if sums[incumbent] == top else sums.index(top)
        want_tau = tau + 1 if want_pi == incumbent else 0

        (got,) = AdaptiveSelector(alpha=0.0).select(
            NetworkTopology((), (node,), ()),
            [float(b) for b in backlog_int],
            Level3State.of([IntersectionState(incumbent, tau)]),
        )
        if (got.pi, got.tau) != (want_pi, want_tau):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    _report(
        1,
        "pressure-only argmax oracle",
        ok,
        f"{mismatches} mismatches / 1000 instances, {elapsed:.3f}s",
    )
    assert mismatches == 0
    assert elapsed < 1.0


# -- 2 ------------------------------------------------------------------------


def test_acceptance_2_zero_weight_equals_pressure_control(tmp_path):
    start = time.perf_counter()
    diffs = []
    for scenario, factory in (("grid", grid_config), ("arterial", arterial_config)):
        for seed in range(20):
            base = dict(q=0.05, seed=seed)
            a = run(factory(strategy="hca", alpha=0.0, **base))
            b = run(factory(strategy="backpressure", **base))
            if a != b:
                diffs.append((scenario, seed))
    # byte-level check on the serialized records of the last pair
    from hcasim.experiments import write_metrics_csv

    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(str(pa), [a])
    write_metrics_csv(str(pb), [b])
    elapsed = time.perf_counter() - start
    ok = not diffs and pa.read_bytes() == pb.read_bytes() and elapsed < 60.0
    _report(
        2,
        "hca at weight zero is pressure control",
        ok,
        f"{len(diffs)} differing records / 40, {elapsed:.1f}s",
    )
    assert diffs == []
    assert pa.read_bytes() == pb.read_bytes()
    assert elapsed < 60.0


# -- 3 ------------------------------------------------------------------------


def test_acceptance_3_safety_conservation_and_tau():
    start = time.perf_counter()
    violations = []
    for i in range(10):
        cfg = random_config(1000 + i, horizon=3600)
        sim = Simulation(cfg, check_invariants=True)
        prev = [(st.pi, st.tau) for st in sim.node_states]
        for t in range(3600):
            try:
                sim.step()  # collision / speed / conservation checked inside
            except Exception as exc:  # noqa: BLE001 - any break is a finding
                violations.append(f"config {i} step {t}: {exc}")
                break
            for ii, st in enumerate(sim.node_states):
                ppi, ptau = prev[ii]
                want = ptau + 1 if st.pi == ppi else 0
                if st.tau != want:
                    violations.append(
                        f"config {i} step {t} node {ii}: tau {st.tau} != {want}"
                    )
            prev = [(st.pi, st.tau) for st in sim.node_states]
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    _report(
        3,
        "safety, conservation, elapsed-green bookkeeping",
        ok,
        f"{len(violations)} violations over 10 configs x 3600 steps, {elapsed:.1f}s",
    )
    assert violations == []
    assert elapsed < 60.0


# -- 4 ------------------------------------------------------------------------


def test_acceptance_4_free_flow_zero_delay():
    start = time.perf_counter()
    cfg = arterial_config(
        intersections=1,
        side_q=0.0,
        q=0.01,
        p=0.0,
        alpha=0.0,
        strategy="fixed_time",
        fixed_time_split=(1, 0),  # holds the road's green forever
        horizon=3600,
    )
    rec = run(cfg)
    elapsed = time.perf_counter() - start
    ok = rec.total_stop_delay == 0 and elapsed < 1.0
    _report(
        4,
        "free flow accumulates no stop delay",
        ok,
        f"delay={rec.total_stop_delay}, {rec.vehicles_injected} vehicles, {elapsed:.2f}s",
    )
    assert rec.total_stop_delay == 0
    assert elapsed < 1.0


# -- 5 and 6: paired strategy comparisons --------------------------------------


def _paired_protocol(cfg: SimConfig, alpha: float, scenario: str, runs: int = 50):
    rows = compare_strategies(
        replace(cfg, alpha=alpha, seed=0), (0.05, 0.10, 0.15), runs, scenario=scenario,
        jobs=JOBS,
    )
    pairs = summarize_comparison(rows)
    stats = []
    for pr in pairs:
        _, p = welch_one_sided(
            pr.backpressure_mean,
            pr.backpressure_std,
            pr.runs,
            pr.hca_mean,
            pr.hca_std,
            pr.runs,
        )
        stats.append((pr.q, pr.backpressure_mean, pr.hca_mean, pr.reduction, p))
    mean_reduction = sum(s[3] for s in stats) / len(stats)
    return stats, mean_reduction


def _comparison_details(stats, mean_reduction) -> str:
    per_q = ", ".join(
        f"q={q:g}: bp={bp:.0f} hca={hca:.0f} red={red:+.1%} p={p:.3g}"
        for q, bp, hca, red, p in stats
    )
    return f"avg reduction {mean_reduction:+.1%} [{per_q}]"


def test_acceptance_5_grid_coordination_beats_pressure():
    stats, mean_red = _paired_protocol(grid_config(), alpha=1.0, scenario="grid")
    all_lower = all(hca < bp for _, bp, hca, _, _ in stats)
    all_sig = all(p < 0.05 for *_, p in stats)
    in_band = 0.05 <= mean_red <= 0.30
    ok = all_lower and all_sig and in_band
    _report(5, "grid: coordination lowers mean stop delay", ok, _comparison_details(stats, mean_red))
    assert all_lower, f"coordinated mean not lower everywhere: {stats}"
    assert all_sig, f"Welch p >= 0.05 somewhere: {stats}"
    assert in_band, f"average reduction {mean_red:+.1%} outside [5%, 30%]"


def test_acceptance_6_arterial_coordination_beats_pressure():
    stats, mean_red = _paired_protocol(
        arterial_config(side_q=0.02), alpha=0.25, scenario="arterial"
    )
    all_lower = all(hca < bp for _, bp, hca, _, _ in stats)
    all_sig = all(p < 0.05 for *_, p in stats)
    in_band = 0.05 <= mean_red <= 0.35
    ok = all_lower and all_sig and in_band
    _report(6, "arterial: coordination lowers mean stop delay", ok, _comparison_details(stats, mean_red))
    assert all_lower, f"coordinated mean not lower everywhere: {stats}"
    assert all_sig, f"Welch p >= 0.05 somewhere: {stats}"
    assert in_band, f"average reduction {mean_red:+.1%} outside [5%, 35%]"


# -- 7 ------------------------------------------------------------------------


def test_acceptance_7_weight_curve_has_interior_minimum():
    if FULL:
        alphas = [round(0.1 * i, 10) for i in range(21)]
        runs = 50
    else:
        alphas = [0.0, 0.5, 1.0, 1.5, 2.0]
        runs = 20
    rows = sweep_alpha(grid_config(q=0.10, seed=0), alphas, runs, scenario="grid", jobs=JOBS)
    means = {a: r.mean for a, r in zip(alphas, rows)}
    best_alpha = min(means, key=means.get)
    interior = means[best_alpha] < means[0.0] and means[best_alpha] < means[2.0]
    in_band = 0.5 <= best_alpha <= 1.8
    ok = interior and in_band
    curve = ", ".join(f"{a:g}:{means[a]:.0f}" for a in alphas)
    _report(
        7,
        "grid delay-vs-weight curve dips at an interior optimum",
        ok,
        f"argmin={best_alpha:g} ({'full' if FULL else 'reduced'} grid) [{curve}]",
    )
    assert interior, f"no interior minimum: argmin={best_alpha:g}, curve [{curve}]"
    assert in_band, f"argmin {best_alpha:g} outside [0.5, 1.8], curve [{curve}]"


# -- 8 ------------------------------------------------------------------------


def test_acceptance_8_reruns_are_byte_identical(tmp_path, capsys):
    start = time.perf_counter()
    argv = [
        "compare", "--scenario", "arterial", "--q-list", "0.1,0.15",
        "--runs", "3", "--steps", "400", "--seed", "77", "--jobs", "1",
    ]
    out1, out2 = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert cli_main(argv + ["--out", str(out2)]) == 0
    trace1, trace2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    run_argv = ["run", "--q", "0.2", "--steps", "400", "--seed", "77"]
    assert cli_main(run_argv + ["--trace", str(trace1)]) == 0
    assert cli_main(run_argv + ["--trace", str(trace2)]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    same_csv = out1.read_bytes() == out2.read_bytes()
    same_meta = (tmp_path / "first.csv.meta.json").read_bytes() == (
        tmp_path / "second.csv.meta.json"
    ).read_bytes()
    same_trace = trace1.read_bytes() == trace2.read_bytes()
    ok = same_csv and same_meta and same_trace and elapsed < 60.0
    _report(
        8,
        "identical flags and seed reproduce output bytes",
        ok,
        f"csv={same_csv} meta={same_meta} trace={same_trace}, {elapsed:.1f}s",
    )
    assert same_csv and same_meta and same_trace
    assert elapsed < 60.0


# -- 9 ------------------------------------------------------------------------


def _ring_flow(density: float, seed: int, n_cells: int = 200, v_max: int = 2,
               p: float = 0.2, warm: int = 500, measure: int = 2000) -> float:
    """Mean flow (vehicles per cell-step) of the engine on a closed ring of
    ``n_cells`` cells whose signals stay green."""
    n = max(1, round(density * n_cells))
    sim = ring_simulation(
        n, n_cells // 2, v_max=v_max, p=p, seed=seed, horizon=warm + measure
    )
    moved = 0
    for t in range(warm + measure):
        sim.step()
        if t >= warm:
            moved += int(sim.state.data[2].sum())
    return moved / (measure * n_cells)


def test_acceptance_9_ring_flow_density_is_unimodal():
    start = time.perf_counter()
    densities = [round(0.05 * k, 10) for k in range(1, 20)]
    flows = [_ring_flow(d, seed=60) for d in densities]
    peak = max(range(len(flows)), key=flows.__getitem__)
    tol = 0.02 * max(flows)
    rising = all(flows[i + 1] >= flows[i] - tol for i in range(peak))
    falling = all(flows[i + 1] <= flows[i] + tol for i in range(peak, len(flows) - 1))
    interior = 0 < peak < len(flows) - 1
    elapsed = time.perf_counter() - start
    ok = rising and falling and interior and elapsed < 60.0
    curve = ", ".join(f"{d:g}:{f:.3f}" for d, f in zip(densities, flows))
    _report(
        9,
        "ring-road flow rises then falls with density",
        ok,
        f"peak at {densities[peak]:g}, {elapsed:.1f}s [{curve}]",
    )
    assert interior and rising and falling, f"flow curve not unimodal: [{curve}]"
    assert elapsed < 60.0
