"""Property-based tests for the structure-of-arrays agent-level
engine: population conservation, shade-count consistency, exact seed
reproducibility and run-call chunking invariance, on both the complete
graph and an explicit CSR topology, across the kernelised protocols;
and whole runs of every kernel against its protocol's scalar rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.three_majority import ThreeMajority
from repro.baselines.voter import VoterModel
from repro.core.diversification import Diversification
from repro.core.state import AgentState
from repro.core.weights import WeightTable
from repro.engine.array_engine import _BLOCK, ArraySimulation, kernel_for
from repro.engine.observers import Observer
from repro.topology import CycleGraph

from kernel_cases import CASES, StepCoins

PROTOCOLS = ("diversification", "voter", "3-majority")
TOPOLOGIES = ("complete", "cycle")


def make_protocol(name: str, weights: WeightTable):
    if name == "diversification":
        return Diversification(weights)
    if name == "voter":
        return VoterModel()
    return ThreeMajority()


def make_topology(name: str, n: int):
    return None if name == "complete" else CycleGraph(n)


@st.composite
def array_setup(draw):
    k = draw(st.integers(1, 4))
    weights = WeightTable(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
                min_size=k,
                max_size=k,
            )
        )
    )
    counts = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    while sum(counts) < 3:
        counts[0] += 1
    colours = np.repeat(np.arange(k), counts)
    protocol = draw(st.sampled_from(PROTOCOLS))
    topology = draw(st.sampled_from(TOPOLOGIES))
    seed = draw(st.integers(0, 2**31 - 1))
    steps = draw(st.integers(0, 2000))
    return weights, colours, protocol, topology, seed, steps


def build(setup, **kwargs):
    weights, colours, protocol, topology, seed, _ = setup
    return ArraySimulation(
        make_protocol(protocol, weights),
        colours,
        k=weights.k,
        topology=make_topology(topology, colours.shape[0]),
        rng=seed,
        **kwargs,
    )


class TestSingleRunInvariants:
    @given(array_setup())
    @settings(max_examples=40, deadline=None)
    def test_population_conserved(self, setup):
        steps = setup[-1]
        simulation = build(setup)
        n = simulation.n
        simulation.run(steps)
        assert simulation.time == steps
        assert simulation.colour_counts().sum() == n

    @given(array_setup())
    @settings(max_examples=40, deadline=None)
    def test_shade_count_consistency(self, setup):
        """Counts recomputed from the raw state arrays always agree
        with the engine's count methods, and dark + light == colour."""
        weights, colours, _, _, _, steps = setup
        simulation = build(setup)
        simulation.run(steps)
        view = simulation.population
        raw_colours = np.asarray(view.colours_view())
        raw_shades = np.asarray(view.shades_view())
        k = simulation.k
        expected_colour = np.bincount(raw_colours, minlength=k)
        expected_dark = np.bincount(
            raw_colours[raw_shades > 0], minlength=k
        )
        np.testing.assert_array_equal(
            simulation.colour_counts(), expected_colour
        )
        np.testing.assert_array_equal(
            simulation.dark_counts(), expected_dark
        )
        np.testing.assert_array_equal(
            simulation.dark_counts() + simulation.light_counts(),
            simulation.colour_counts(),
        )

    @given(array_setup())
    @settings(max_examples=30, deadline=None)
    def test_exact_seed_reproducibility(self, setup):
        steps = setup[-1]
        a = build(setup).run(steps)
        b = build(setup).run(steps)
        np.testing.assert_array_equal(
            np.asarray(a.population.colours_view()),
            np.asarray(b.population.colours_view()),
        )
        np.testing.assert_array_equal(
            np.asarray(a.population.shades_view()),
            np.asarray(b.population.shades_view()),
        )
        assert a.changes == b.changes

    @given(array_setup(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_run_chunking_invariance(self, setup, fraction):
        """run(a); run(b) equals run(a + b): trajectories depend only
        on the executed-step count, not the call pattern."""
        steps = setup[-1]
        split = int(round(fraction * steps))
        whole = build(setup).run(steps)
        chunked = build(setup)
        chunked.run(split)
        chunked.run(steps - split)
        np.testing.assert_array_equal(
            np.asarray(whole.population.colours_view()),
            np.asarray(chunked.population.colours_view()),
        )
        np.testing.assert_array_equal(
            np.asarray(whole.population.shades_view()),
            np.asarray(chunked.population.shades_view()),
        )

    @given(array_setup())
    @settings(max_examples=20, deadline=None)
    def test_observer_path_matches_vectorised_path(self, setup):
        """Attaching an observer switches to change-by-change
        application with live count tables; the trajectory and the
        counts must not change."""
        steps = min(setup[-1], 600)
        plain = build(setup).run(steps)
        observed = build(setup, observers=[Observer()])
        observed.run(steps)
        np.testing.assert_array_equal(
            np.asarray(plain.population.colours_view()),
            np.asarray(observed.population.colours_view()),
        )
        # Live tables stay consistent with a fresh bincount.
        view = observed.population
        raw_colours = np.asarray(view.colours_view())
        np.testing.assert_array_equal(
            observed.colour_counts(),
            np.bincount(raw_colours, minlength=observed.k),
        )
        np.testing.assert_array_equal(
            observed.dark_counts() + observed.light_counts(),
            observed.colour_counts(),
        )

    @given(array_setup())
    @settings(max_examples=30, deadline=None)
    def test_diversification_sustainability(self, setup):
        """A colour's last dark agent can never lighten (it would have
        to sample a dark agent of its own colour), so dark counts that
        start >= 1 stay >= 1 — the paper's sustainability invariant."""
        weights, colours, _, topology, seed, steps = setup
        simulation = ArraySimulation(
            Diversification(weights),
            colours,
            k=weights.k,
            topology=make_topology(topology, colours.shape[0]),
            rng=seed,
        )
        simulation.run(steps)
        assert (simulation.dark_counts() >= 1).all()


class ChangeLog(Observer):
    """Logs every change with the clock the observer sees."""

    def __init__(self):
        self.entries = []

    def on_change(self, simulation, agent, old, new):
        self.entries.append((simulation.time, agent, old, new))


def reference_run(protocol, colours, shades, seed: int, steps: int):
    """``steps`` steps of ``protocol.transition`` on the engine's own
    draws: each block is redrawn from ``seed`` in ``_refill_single``'s
    order (uniform initiators, partner uniforms, then coins, shifted
    past the initiator on the complete graph), and each step's coins
    are served as :class:`StepCoins` serves them.  Returns the final
    states and every change as ``(clock, agent, old, new)``."""
    rng = np.random.default_rng(seed)
    n = len(colours)
    arity = int(protocol.arity)
    coins = kernel_for(protocol).coins
    states = [AgentState(c, s) for c, s in zip(colours, shades)]
    log = []
    for start in range(0, steps, _BLOCK):
        initiators = rng.integers(0, n, size=_BLOCK)
        draw = (rng.random((_BLOCK, arity)) * (n - 1)).astype(np.int64)
        partners = draw + (draw >= initiators[:, None])
        step_coins = (
            rng.random((_BLOCK, coins)) if coins else np.zeros((_BLOCK, 0))
        )
        for j in range(min(_BLOCK, steps - start)):
            u = int(initiators[j])
            new = protocol.transition(
                states[u],
                [states[v] for v in partners[j]],
                StepCoins(step_coins[j]),
            )
            if new != states[u]:
                log.append((start + j + 1, u, states[u], new))
                states[u] = new
    return states, log


@st.composite
def rule_run(draw):
    """A population of 2-64 agents (colours are reduced modulo the
    kernel's ``k``) with both shades, a seed, and a run of up to 2.5
    draw blocks cut into up to four ``run`` calls, some of them at a
    block boundary."""
    n = draw(st.integers(2, 64))
    colours = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    shades = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**31 - 1))
    steps = draw(st.integers(0, 2)) * _BLOCK + draw(
        st.integers(0, _BLOCK // 2)
    )
    cut = st.one_of(
        st.integers(0, steps), st.sampled_from([_BLOCK - 1, _BLOCK])
    )
    cuts = [c for c in draw(st.lists(cut, max_size=3)) if c <= steps]
    observed = draw(st.booleans())
    return colours, shades, seed, steps, sorted(cuts), observed


class TestWholeRunsFollowTheScalarRules:
    @pytest.mark.parametrize(
        "factory, k", [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    @given(setup=rule_run())
    @settings(max_examples=6, deadline=None)
    def test_engine_matches_the_scalar_rule_step_by_step(
        self, factory, k, setup
    ):
        """Every kernel, run in any split, with or without an observer,
        ends where its protocol's own rule ends on the same draws:
        colours, shades, clock and change count; an observer sees each
        change at its own step's clock."""
        colours, shades, seed, steps, cuts, observed = setup
        colours = [colour % k for colour in colours]
        log = ChangeLog()
        engine = ArraySimulation(
            factory(), colours, shades=shades, k=k, rng=seed,
            observers=[log] if observed else [],
        )
        for size in np.diff([0, *cuts, steps]):
            engine.run(int(size))
        states, changes = reference_run(
            factory(), colours, shades, seed, steps
        )
        assert engine.population.states() == states
        assert engine.time == steps
        assert engine.changes == len(changes)
        if observed:
            assert log.entries == changes
