"""Ant-colony task allocation — the paper's motivating scenario (Sec 1).

A colony of 1,200 ants allocates itself across four tasks with
different demands:

    foraging     demand 4   (most important: food!)
    brood care   demand 3
    nest repair  demand 2
    patrolling   demand 1

Each ant follows the Diversification protocol: it knows only its own
task and occasionally observes one random nest-mate.  We then simulate
two ecological shocks:

1. a predator eliminates most foragers (they are re-tasked — the
   "recolouring" adversary), and
2. the queen produces 300 new workers who all start on brood care.

The colony re-balances after both shocks without any central control.

Run:  python examples/ant_task_allocation.py
"""

import numpy as np

from repro import AggregateSimulation, weights_from_demands
from repro.experiments.report import format_series, format_table
from repro.experiments.workloads import proportional_counts

TASKS = ["foraging", "brood care", "nest repair", "patrolling"]
DEMANDS = [4.0, 3.0, 2.0, 1.0]


def task_table(engine, weights) -> str:
    counts = engine.colour_counts()
    shares = counts / counts.sum()
    fair = weights.fair_shares()
    rows = [
        [TASKS[i], int(counts[i]), f"{shares[i]:.3f}", f"{fair[i]:.3f}"]
        for i in range(len(TASKS))
    ]
    return format_table(["task", "ants", "share", "target"], rows)


def main() -> None:
    weights = weights_from_demands(DEMANDS)
    n = 1_200
    engine = AggregateSimulation(
        weights,
        dark_counts=proportional_counts(n, weights),
        rng=2021,
    )

    print("== initial allocation (proportional, all committed) ==")
    print(task_table(engine, weights))

    # Let the colony reach its working equilibrium.
    engine.run(300 * n)
    print("\n== after settling ==")
    print(task_table(engine, weights))

    # Shock 1: ants from other colonies kill most foragers; survivors
    # panic into patrolling (the paper's recolouring adversary).
    print("\n*** shock 1: forager massacre (foragers re-task to patrol)")
    foragers = int(engine.dark_counts()[0] + engine.light_counts()[0])
    engine.recolour(source=0, target=3)
    # One scout keeps foraging alive (sustainability needs a dark seed;
    # in a real colony some forager always survives).
    engine.add_agents(colour=0, count=1, dark=True)
    print(f"    {foragers} foragers lost; 1 scout remains")
    print(task_table(engine, weights))

    # Track the recovery of foraging over time.
    times, forager_counts = [], []
    for _ in range(60):
        engine.run(40 * engine.n)
        times.append(engine.time)
        forager_counts.append(float(engine.colour_counts()[0]))
    print()
    print(format_series(
        "foraging workforce recovering after the massacre",
        times, forager_counts,
    ))
    print("\n== after recovery ==")
    print(task_table(engine, weights))

    # Shock 2: 300 freshly-hatched workers all start on brood care.
    print("\n*** shock 2: 300 new workers hatch into brood care")
    engine.add_agents(colour=1, count=300, dark=True)
    engine.run(400 * engine.n)
    print("\n== colony of "
          f"{engine.n} after absorbing the new workers ==")
    print(task_table(engine, weights))

    final_error = float(
        np.abs(
            engine.colour_counts() / engine.n - weights.fair_shares()
        ).max()
    )
    print(f"\nfinal allocation error: {final_error:.4f} "
          "(no ant ever knew the global demands)")


if __name__ == "__main__":
    main()
