"""Integration tests: vectorised vs scalar agent-level engine
equivalence.

The array engine must be *distribution-identical* to the scalar
:class:`~repro.engine.simulator.Simulation`, not just faster.  With
fixed seeds we run R replications through the scalar engine and through
the array engine (one engine per replication, independent child
generators on both sides), then compare the final colour-count
distributions with two-sample Kolmogorov-Smirnov tests per colour, on
the complete graph and on an explicit CSR topology (a cycle), for the
Diversification protocol and every kernelised baseline.
"""

import numpy as np
import pytest
from scipy import stats

from repro.baselines.three_majority import ThreeMajority
from repro.baselines.voter import VoterModel
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.array_engine import ArraySimulation
from repro.engine.population import Population
from repro.engine.rng import make_rng, spawn
from repro.engine.simulator import Simulation
from repro.topology import CycleGraph

REPLICATIONS = 64
N = 60
STEPS = 1500
P_FLOOR = 1e-3  # identical laws: p-values are uniform, so this is lax
COLOURS = np.array([0] * 30 + [1] * 15 + [2] * 15)

WEIGHT_VECTOR = (1.0, 2.0, 3.0)


def make_protocol(name: str):
    if name == "diversification":
        return Diversification(WeightTable(WEIGHT_VECTOR))
    if name == "voter":
        return VoterModel()
    return ThreeMajority()


def make_topology(name: str):
    return None if name == "complete" else CycleGraph(N)


CASES = (
    ("diversification", "complete"),
    ("diversification", "cycle"),
    ("voter", "complete"),
    ("voter", "cycle"),
    ("3-majority", "complete"),
    ("3-majority", "cycle"),
)


def scalar_finals(protocol_name: str, topology_name: str, seed: int):
    colour_finals, dark_finals = [], []
    for child in spawn(make_rng(seed), REPLICATIONS):
        protocol = make_protocol(protocol_name)
        population = Population.from_colours(
            COLOURS.tolist(), protocol, k=3
        )
        Simulation(
            protocol,
            population,
            topology=make_topology(topology_name),
            rng=child,
        ).run(STEPS)
        colour_finals.append(population.colour_counts())
        dark_finals.append(population.dark_counts())
    return np.asarray(colour_finals), np.asarray(dark_finals)


def array_finals_single(
    protocol_name: str, topology_name: str, seed: int
):
    colour_finals, dark_finals = [], []
    for child in spawn(make_rng(seed), REPLICATIONS):
        simulation = ArraySimulation(
            make_protocol(protocol_name),
            COLOURS,
            k=3,
            topology=make_topology(topology_name),
            rng=child,
        )
        simulation.run(STEPS)
        colour_finals.append(simulation.colour_counts())
        dark_finals.append(simulation.dark_counts())
    return np.asarray(colour_finals), np.asarray(dark_finals)


@pytest.fixture(scope="module")
def distributions():
    """(protocol, topology) -> final (colour, dark) count matrices,
    each of shape (R, 3): the scalar engine's, and two array-engine
    samples from different base seeds (``second`` feeds the dark-count
    and spread checks, so they do not reuse the colour KS sample)."""
    out = {}
    for protocol_name, topology_name in CASES:
        out[protocol_name, topology_name] = {
            "scalar": scalar_finals(protocol_name, topology_name, 101),
            "second": array_finals_single(
                protocol_name, topology_name, 202
            ),
            "single": array_finals_single(
                protocol_name, topology_name, 303
            ),
        }
    return out


@pytest.mark.parametrize("case", CASES, ids=["/".join(c) for c in CASES])
class TestArrayScalarEquivalence:
    def test_population_conserved(self, distributions, case):
        for counts, _ in distributions[case].values():
            assert counts.shape == (REPLICATIONS, 3)
            assert (counts.sum(axis=1) == N).all()

    def test_ks_single_vs_scalar(self, distributions, case):
        """Single-run segmented mode: same distribution as the scalar
        engine under independent seeds."""
        scalar = distributions[case]["scalar"][0]
        single = distributions[case]["single"][0]
        for colour in range(3):
            result = stats.ks_2samp(scalar[:, colour], single[:, colour])
            assert result.pvalue > P_FLOOR, (
                f"{case} colour {colour}: KS p={result.pvalue:.2e}"
            )

    def test_ks_dark_counts(self, distributions, case):
        """The shade split matches too, not just the colour totals."""
        scalar = distributions[case]["scalar"][1]
        array = distributions[case]["second"][1]
        for colour in range(3):
            result = stats.ks_2samp(scalar[:, colour], array[:, colour])
            assert result.pvalue > P_FLOOR, (
                f"{case} dark colour {colour}: KS p={result.pvalue:.2e}"
            )

    def test_spreads_comparable(self, distributions, case):
        """Not just location: per-colour standard deviations estimate
        the same law, so they should agree within a factor of 2.

        Skipped for the consensus baselines on the complete graph,
        whose final distributions are near-degenerate at this horizon
        (almost every replication ends at the same consensus), making a
        std ratio dominated by single rare outcomes rather than by the
        law.  On the cycle they are far from consensus at this horizon.
        """
        if case[0] != "diversification" and case[1] == "complete":
            pytest.skip("near-degenerate consensus distribution")
        scalar = distributions[case]["scalar"][0]
        array = distributions[case]["second"][0]
        for colour in range(3):
            ratio = (array[:, colour].std(ddof=1) + 1.0) / (
                scalar[:, colour].std(ddof=1) + 1.0
            )
            assert 0.5 <= ratio <= 2.0, f"{case} colour {colour}"


class TestRoutedEquivalence:
    """The run_agent routing produces the same distributions whichever
    engine it picks."""

    def test_run_agent_engines_agree(self):
        from repro.experiments.runner import run_agent

        weights = WeightTable(WEIGHT_VECTOR)
        finals = {}
        for engine, seed in (("array", 11), ("scalar", 22)):
            rows = []
            for child in spawn(make_rng(seed), 48):
                record = run_agent(
                    Diversification(weights.copy()), weights, N, STEPS,
                    start="worst", seed=child,
                    record_interval=STEPS, engine=engine,
                )
                rows.append(record.final_colour_counts)
            finals[engine] = np.asarray(rows)
        for colour in range(3):
            result = stats.ks_2samp(
                finals["array"][:, colour], finals["scalar"][:, colour]
            )
            assert result.pvalue > P_FLOOR, f"colour {colour}"


class TestAdversarialArrayEquivalence:
    """R array-engine runs under an E7-style schedule (agent flood +
    new dark colour) match R scalar engines each applying the same
    schedule, per-colour in distribution."""

    STEPS = 1500

    def make_schedule(self):
        from repro.adversary.interventions import AddAgents, AddColour
        from repro.adversary.schedule import InterventionSchedule

        return InterventionSchedule(
            [
                (self.STEPS // 3, AddAgents(colour=0, count=N // 2)),
                (2 * self.STEPS // 3, AddColour(weight=2.0, count=2)),
            ]
        )

    def finals(self, engine_name: str, seed: int) -> np.ndarray:
        from repro.experiments.replication import replicate_colour_counts

        weights = WeightTable(WEIGHT_VECTOR)
        counts = replicate_colour_counts(
            weights, N, self.STEPS,
            replications=REPLICATIONS,
            protocol=Diversification(weights.copy()),
            schedule=self.make_schedule(),
            base_seed=seed,
            engine=engine_name,
        )
        assert weights.k == 3  # caller's table untouched
        return counts

    @pytest.fixture(scope="class")
    def adversarial(self):
        return {
            "array": self.finals("array", seed=51),
            "scalar": self.finals("scalar", seed=62),
        }

    def test_population_conserved(self, adversarial):
        expected = N + N // 2 + 2
        for counts in adversarial.values():
            assert counts.shape == (REPLICATIONS, 4)
            assert (counts.sum(axis=1) == expected).all()

    def test_ks_array_vs_scalar(self, adversarial):
        for colour in range(4):
            result = stats.ks_2samp(
                adversarial["array"][:, colour],
                adversarial["scalar"][:, colour],
            )
            assert result.pvalue > P_FLOOR, (
                f"colour {colour}: KS p={result.pvalue:.2e}"
            )

    def test_bit_reproducible_from_one_seed(self):
        np.testing.assert_array_equal(
            self.finals("array", seed=77), self.finals("array", seed=77)
        )


class TestBaselineKernelEquivalence:
    """Every kernelised baseline matches its scalar transition in
    distribution (final colour counts over R replications), on the
    complete graph and on a cycle."""

    STEPS = 1200

    def cases(self):
        from repro.baselines.anti_voter import AntiVoterModel
        from repro.baselines.epidemic import SISEpidemic
        from repro.baselines.trivial import TrivialResampling
        from repro.baselines.two_choices import TwoChoices
        from repro.baselines.uniform_partition import RandomRecolouring

        half = [0] * 30 + [1] * 30
        return {
            "2-choices": (lambda: TwoChoices(), [0] * 40 + [1] * 20, 2),
            "anti-voter": (lambda: AntiVoterModel(), list(half), 2),
            "sis": (lambda: SISEpidemic(0.7, 0.2), [0] * 45 + [1] * 15, 2),
            "random-recolouring": (
                lambda: RandomRecolouring(3), list(COLOURS), 3
            ),
            "trivial": (
                lambda: TrivialResampling(
                    WeightTable(WEIGHT_VECTOR), 0.8
                ),
                list(COLOURS),
                3,
            ),
        }

    @pytest.mark.parametrize("topology_name", ["complete", "cycle"])
    @pytest.mark.parametrize(
        "name",
        ["2-choices", "anti-voter", "sis", "random-recolouring", "trivial"],
    )
    def test_ks_array_vs_scalar(self, name, topology_name):
        factory, colours, k = self.cases()[name]
        array_rows = []
        for child in spawn(make_rng(404), REPLICATIONS):
            simulation = ArraySimulation(
                factory(),
                np.asarray(colours),
                k=k,
                topology=make_topology(topology_name),
                rng=child,
            )
            simulation.run(self.STEPS)
            array_rows.append(simulation.colour_counts())
        array_finals = np.asarray(array_rows)
        scalar_rows = []
        for child in spawn(make_rng(505), REPLICATIONS):
            protocol = factory()
            population = Population.from_colours(colours, protocol, k=k)
            Simulation(
                protocol,
                population,
                topology=make_topology(topology_name),
                rng=child,
            ).run(self.STEPS)
            scalar_rows.append(population.colour_counts())
        scalar_finals = np.asarray(scalar_rows)
        for colour in range(k):
            result = stats.ks_2samp(
                array_finals[:, colour], scalar_finals[:, colour]
            )
            assert result.pvalue > P_FLOOR, (
                f"{name} colour {colour}: KS p={result.pvalue:.2e}"
            )
