"""E14 — vectorised agent-level engine: wall-clock speedup of the
structure-of-arrays ``ArraySimulation`` over the scalar per-step
``Simulation`` on the acceptance workload (10,000 agents, 3 colours,
complete graph, Diversification).

After a warm-up, both engines run ``PAIRS`` times, alternating which
runs first; each side reports its median and quartiles, and the
speedup is the scalar median over the array median (single runs on a
shared machine spread too widely to compare).

Runs under pytest-benchmark like the other benches, and also as a plain
script (``python benchmarks/bench_e14_array_engine.py``) that writes
the timing JSON to ``benchmarks/results/e14_array_engine_timing.json``
for the CI artifact.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import numpy as np

from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.array_engine import ArraySimulation
from repro.engine.population import Population
from repro.engine.simulator import Simulation
from repro.experiments.workloads import colours_from_counts, worst_case_counts

N = 10_000
WEIGHT_VECTOR = (1.0, 2.0, 3.0)
STEPS = 200_000
SEED = 0
TARGET_SPEEDUP = 5.0
#: Timed array/scalar pairs after the warm-up.
PAIRS = 5

RESULTS_PATH = (
    pathlib.Path(__file__).parent
    / "results"
    / "e14_array_engine_timing.json"
)


def _initial_colours() -> list[int]:
    return colours_from_counts(worst_case_counts(N, len(WEIGHT_VECTOR)))


def run_array() -> None:
    protocol = Diversification(WeightTable(WEIGHT_VECTOR))
    simulation = ArraySimulation(
        protocol,
        np.asarray(_initial_colours(), dtype=np.int64),
        k=len(WEIGHT_VECTOR),
        rng=SEED,
    )
    simulation.run(STEPS)


def run_scalar() -> None:
    protocol = Diversification(WeightTable(WEIGHT_VECTOR))
    population = Population.from_colours(
        _initial_colours(), protocol, k=len(WEIGHT_VECTOR)
    )
    Simulation(protocol, population, rng=SEED).run(STEPS)


def _seconds(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def measure() -> dict:
    """Time ``PAIRS`` alternating array/scalar runs and report each
    side's median (``*_seconds``), quartiles and samples; the speedup
    is the scalar median over the array median."""
    run_array()  # warm-up: NumPy internals, allocator, caches
    runs = {"array": run_array, "scalar": run_scalar}
    samples = {"array": [], "scalar": []}
    for pair in range(PAIRS):
        order = ("array", "scalar") if pair % 2 == 0 else ("scalar", "array")
        for side in order:
            samples[side].append(_seconds(runs[side]))
    timing = {
        "n": N,
        "weights": list(WEIGHT_VECTOR),
        "steps": STEPS,
        "seed": SEED,
        "pairs": PAIRS,
    }
    for side, seconds in samples.items():
        q1, median, q3 = statistics.quantiles(
            seconds, n=4, method="inclusive"
        )
        timing[f"{side}_seconds"] = median
        timing[f"{side}_quartiles_s"] = [q1, q3]
        timing[f"{side}_samples_s"] = seconds
        timing[f"{side}_us_per_step"] = median / STEPS * 1e6
    timing["speedup"] = timing["scalar_seconds"] / timing["array_seconds"]
    timing["target_speedup"] = TARGET_SPEEDUP
    return timing


def test_array_engine_speedup(benchmark):
    """Array engine beats the scalar engine by >= 5x on the acceptance
    workload (10k agents, 3 colours, complete graph)."""
    timing = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(json.dumps(timing, indent=2))
    assert timing["speedup"] >= TARGET_SPEEDUP, timing


def test_array_engine_throughput(benchmark):
    """Wall-clock of the array engine alone (10k agents, 200k steps)."""
    benchmark.pedantic(run_array, rounds=1, iterations=1, warmup_rounds=0)


def main() -> int:
    timing = measure()
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(timing, indent=2) + "\n")
    print(json.dumps(timing, indent=2))
    ok = timing["speedup"] >= TARGET_SPEEDUP
    print(
        f"speedup {timing['speedup']:.1f}x, median of {timing['pairs']} "
        f"pairs ({'meets' if ok else 'BELOW'} the {TARGET_SPEEDUP:.0f}x "
        "target)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
