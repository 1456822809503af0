"""Quickstart: run the Diversification protocol and check it is *good*.

A population of 1,000 agents with three colours of weights 1, 2, 3
starts in the worst configuration (almost everyone holds colour 0).
After O(w² n log n) interactions the colour distribution locks onto
the fair shares w_i/w = 1/6, 2/6, 3/6 and never loses a colour.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import WeightTable, assess_goodness, run_aggregate
from repro.experiments.report import format_table
from repro.experiments.runner import run_diversification_agent


def main() -> None:
    weights = WeightTable([1.0, 2.0, 3.0])
    n = 1_000
    steps = 400 * n  # plenty: ~2 x the convergence bound at this size

    record = run_aggregate(
        weights, n=n, steps=steps, start="worst", seed=7
    )

    final = record.final_colour_counts
    shares = final / final.sum()
    fair = weights.fair_shares()
    rows = [
        [colour, weights.weight(colour), int(final[colour]),
         f"{shares[colour]:.3f}", f"{fair[colour]:.3f}"]
        for colour in range(weights.k)
    ]
    print(format_table(
        ["colour", "weight", "count", "share", "fair share"], rows,
        title=f"Diversification after {steps:,} interactions (n={n})",
    ))

    # Evaluate Def 1.1 on the last quarter of the recorded snapshots.
    tail = max(1, len(record.times) // 4)
    report = assess_goodness(record.colour_counts[-tail:], weights)
    print()
    print(f"diversity error : {report.diversity_error:.4f} "
          f"(bound {report.diversity_bound:.4f})")
    print(f"diverse         : {report.diverse}")
    print(f"sustainable     : {report.sustainable}")
    print(f"good            : {report.good}")

    # One run is a sample; the paper's claims are about distributions
    # over runs.  replications=R fuses R independent chains into one
    # vectorised batched engine (a single (R, 2k) NumPy state matrix),
    # so repeating the measurement costs far less than R scalar runs.
    batch = run_aggregate(
        weights, n=n, steps=steps, start="worst", seed=7,
        replications=32, batched=True,
    )
    finals = batch.final_colour_counts
    print()
    print(f"32 batched replications: mean counts "
          f"{np.round(finals.mean(axis=0), 1)}, "
          f"std {np.round(finals.std(axis=0), 1)}")

    # The aggregate engine tracks counts only.  Agent-level runs — the
    # paper's actual execution model, needed for explicit topologies,
    # per-agent fairness tracking and the baseline dynamics — default
    # to ArraySimulation, which holds the population as (colour, shade)
    # arrays, draws its steps in vectorised blocks and applies each
    # protocol's transition kernel to them one by one.  Protocols
    # without a kernel, runs with interventions, and engine="scalar"
    # use the per-step reference engine instead.
    record = run_diversification_agent(
        weights, n, steps, start="worst", seed=7,
    )
    engine = type(record.extras["simulation"]).__name__
    print()
    print(f"agent-level run ({engine}): final counts "
          f"{record.final_colour_counts}")


if __name__ == "__main__":
    main()
