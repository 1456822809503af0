"""E17 — heterogeneous mega-batching: wall-clock speedup of fusing an
entire scenario sweep (24 cells × R=50, per-cell weight vectors, colour
counts and population sizes) into ONE
:class:`~repro.engine.hetero.HeterogeneousAggregateBatch` event loop,
against the per-cell batched loop (one
:class:`~repro.engine.batched.BatchedAggregateSimulation` per cell —
the fastest pre-PR path).

PR 1 fused replications within a cell; this PR fuses the cells
themselves, so a whole weight-skew × k × n phase diagram pays the
Python interpreter once.  Equivalence is checked alongside the timing:
per cell and per colour, the fused final-count distribution must match
the per-cell batched loop's by a two-sample KS test (the established
batched-vs-scalar precedent).  With 24 cells × up to 4 colours the
p-values of identical laws are uniform over ~80 tests, so the floor is
Bonferroni-lax (1e-4).

Runs under pytest-benchmark like the other benches, and also as a
plain script (``python benchmarks/bench_e17_fused_sweep.py``) that
writes the timing JSON to
``benchmarks/results/e17_fused_sweep_timing.json`` for the CI
artifact.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
from scipy import stats

from repro.core.weights import WeightTable
from repro.experiments.fusion import spec_fused_sweep
from repro.experiments.pipeline import execute, plan
from repro.experiments.replication import replicate_colour_counts

REPLICATIONS = 50
ROUNDS = 30
BASE_SEED = 1717
TARGET_SPEEDUP = 3.0
P_FLOOR = 1e-4  # ~80 KS tests of identical laws: Bonferroni-lax floor

RESULTS_PATH = (
    pathlib.Path(__file__).parent
    / "results"
    / "e17_fused_sweep_timing.json"
)


def make_spec():
    """The acceptance sweep: 4 weight vectors (different skew AND k) ×
    6 population sizes = 24 heterogeneous cells, R=50 each."""
    return spec_fused_sweep(
        rounds=ROUNDS, replications=REPLICATIONS, base_seed=BASE_SEED
    )


def run_fused(spec):
    """The mega-batch path: all 24 × 50 rows in one engine."""
    return execute(spec, fused=True)


def run_per_cell_loop(spec) -> list[np.ndarray]:
    """The pre-PR fast path: loop the cells, one batched (R, 2k)
    engine per cell."""
    finals = []
    for index, params in enumerate(plan(spec).cells):
        finals.append(
            replicate_colour_counts(
                WeightTable(params["vector"]),
                params["n"],
                params["rounds"] * params["n"],
                replications=REPLICATIONS,
                base_seed=BASE_SEED + index,
            )
        )
    return finals


def ks_equivalence(fused_result, per_cell_finals) -> dict:
    """Per-cell, per-colour KS of fused vs per-cell final counts."""
    worst = 1.0
    tests = 0
    for (params, values), finals in zip(
        fused_result.by_cell(), per_cell_finals
    ):
        fused_counts = np.array([value["counts"] for value in values])
        for colour in range(len(params["vector"])):
            pvalue = stats.ks_2samp(
                fused_counts[:, colour], finals[:, colour]
            ).pvalue
            worst = min(worst, float(pvalue))
            tests += 1
    return {"ks_tests": tests, "ks_min_pvalue": worst}


def measure() -> dict:
    """Time both paths once and report speedup + KS equivalence."""
    spec = make_spec()
    run_fused(spec)  # warm-up: NumPy internals, allocator, caches
    start = time.perf_counter()
    fused_result = run_fused(spec)
    fused_seconds = time.perf_counter() - start
    start = time.perf_counter()
    per_cell_finals = run_per_cell_loop(spec)
    per_cell_seconds = time.perf_counter() - start
    expanded = plan(spec)
    timing = {
        "cells": len(expanded.cells),
        "replications": REPLICATIONS,
        "rows_fused": len(expanded.shards),
        "rounds": ROUNDS,
        "grid": {
            "vectors": [list(v) for v in spec.grid["vector"]],
            "ns": list(spec.grid["n"]),
        },
        "fused_seconds": fused_seconds,
        "per_cell_seconds": per_cell_seconds,
        "speedup": per_cell_seconds / fused_seconds,
        "target_speedup": TARGET_SPEEDUP,
        "p_floor": P_FLOOR,
    }
    timing.update(ks_equivalence(fused_result, per_cell_finals))
    return timing


def test_fused_sweep_speedup(benchmark):
    """The fused mega-batch beats the per-cell batched loop by >= 3x
    on the 24-cell x R=50 acceptance sweep, KS-equivalent per cell."""
    timing = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(json.dumps(timing, indent=2))
    assert timing["speedup"] >= TARGET_SPEEDUP, timing
    assert timing["ks_min_pvalue"] > P_FLOOR, timing


def test_fused_sweep_throughput(benchmark):
    """Wall-clock of the fused mega-batch alone (1200 rows)."""
    spec = make_spec()
    benchmark.pedantic(
        run_fused, args=(spec,), rounds=1, iterations=1, warmup_rounds=0
    )


def main() -> int:
    timing = measure()
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(timing, indent=2) + "\n")
    print(json.dumps(timing, indent=2))
    ok = (
        timing["speedup"] >= TARGET_SPEEDUP
        and timing["ks_min_pvalue"] > P_FLOOR
    )
    print(
        f"speedup {timing['speedup']:.1f}x "
        f"({'meets' if ok else 'BELOW'} the {TARGET_SPEEDUP:.0f}x target), "
        f"KS min p={timing['ks_min_pvalue']:.2e} over "
        f"{timing['ks_tests']} tests"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
