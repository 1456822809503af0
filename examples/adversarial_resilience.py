"""Adversarial resilience — Sec 1's robustness claims, narrated.

Compares how the Diversification protocol and the "trivial"
global-knowledge resampler (the paper's strawman) cope with an
adversary that adds a brand-new colour mid-run.  Diversification picks
the newcomer up automatically; the trivial protocol is structurally
blind to it because every agent carries a frozen private weight table.

Run:  python examples/adversarial_resilience.py
"""

from repro import Diversification, Population, Simulation, WeightTable
from repro.baselines import TrivialResampling
from repro.core.state import dark
from repro.experiments.report import format_table
from repro.experiments.workloads import colours_from_counts, uniform_counts


def run_with_new_colour(protocol_name: str, n: int = 600) -> dict:
    """Run a protocol, inject a new colour at mid-time, report shares."""
    weights = WeightTable([1.0, 1.0])
    if protocol_name == "diversification":
        protocol = Diversification(weights)
    else:
        # The trivial protocol snapshots the table at construction —
        # exactly the robustness failure this example demonstrates.
        protocol = TrivialResampling(weights)
    population = Population.from_colours(
        colours_from_counts(uniform_counts(n, weights.k)), protocol,
        k=weights.k,
    )
    simulation = Simulation(protocol, population, rng=99)

    simulation.run(300 * n)  # settle
    # The adversary registers a new colour in the *system* table and
    # drops in one dark supporter.  Diversification shares the live
    # table, so it sees the newcomer; the trivial protocol's private
    # snapshot does not.
    colour = weights.add_colour(2.0)
    population.add_agent(dark(colour))
    simulation.run(2_000 * n)  # give the newcomer ample time

    counts = population.colour_counts().astype(float)
    shares = counts / counts.sum()
    fair = weights.fair_shares()
    return {
        "protocol": protocol_name,
        "shares": shares,
        "fair": fair,
        "newcomer_share": float(shares[2]),
        "newcomer_target": float(fair[2]),
    }


def main() -> None:
    print("An adversary introduces a brand-new colour (weight 2) with a")
    print("single dark supporter, mid-run.  Target share: 2/4 = 0.5.\n")

    rows = []
    for name in ("diversification", "trivial-resampling"):
        result = run_with_new_colour(name)
        rows.append(
            [
                result["protocol"],
                ", ".join(f"{s:.3f}" for s in result["shares"]),
                f"{result['newcomer_share']:.3f}",
                f"{result['newcomer_target']:.3f}",
                "yes" if abs(
                    result["newcomer_share"] - result["newcomer_target"]
                ) < 0.1 else "NO",
            ]
        )
    print(format_table(
        ["protocol", "final shares (c0, c1, new)", "newcomer share",
         "target", "absorbed?"],
        rows,
    ))
    print()
    print("Diversification needs no notification: agents adopt the new")
    print("colour simply by observing it.  The trivial resampler keeps")
    print("drawing from its frozen private table and never adopts the")
    print("newcomer — the robustness failure the paper describes.")


if __name__ == "__main__":
    main()
