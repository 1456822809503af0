"""Property-based tests: sustainability survives arbitrary adversarial
schedules of agent/colour additions (the paper's robustness claim) —
on the scalar aggregate engine, on the row-batched engine, where every
intervention applies to all replications at once, and on the
agent-level array engine, one engine per replication."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    AddAgents,
    AddColour,
    InterventionSchedule,
    RecolourColour,
)
from repro.adversary.schedule import run_with_interventions
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.aggregate import AggregateSimulation
from repro.engine.array_engine import ArraySimulation
from repro.engine.batched import BatchedAggregateSimulation
from repro.engine.rng import make_rng, spawn


@st.composite
def adversarial_run(draw):
    k = draw(st.integers(1, 3))
    weights = WeightTable(
        [float(w) for w in draw(
            st.lists(st.integers(1, 5), min_size=k, max_size=k)
        )]
    )
    dark = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
    if sum(dark) < 2:
        dark[0] += 2
    total_steps = draw(st.integers(100, 3000))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        time_step = draw(st.integers(0, total_steps))
        if draw(st.booleans()):
            events.append(
                (time_step, AddAgents(
                    colour=draw(st.integers(0, k - 1)),
                    count=draw(st.integers(1, 10)),
                    dark=draw(st.booleans()),
                ))
            )
        else:
            # New colours arrive dark with >= 1 supporter, as the
            # paper's sustainability condition requires.
            events.append(
                (time_step, AddColour(
                    weight=float(draw(st.integers(1, 5))),
                    count=draw(st.integers(1, 5)),
                    dark=True,
                ))
            )
    seed = draw(st.integers(0, 2**31 - 1))
    return weights, dark, total_steps, events, seed


class TestAdversarialSustainability:
    @given(adversarial_run())
    @settings(max_examples=40, deadline=None)
    def test_dark_invariant_survives_interventions(self, setup):
        weights, dark, total_steps, events, seed = setup
        engine = AggregateSimulation(weights, dark_counts=dark, rng=seed)
        schedule = InterventionSchedule(events)
        run_with_interventions(engine, total_steps, schedule)
        assert (engine.dark_counts() >= 1).all()
        assert engine.time == total_steps

    @given(adversarial_run())
    @settings(max_examples=40, deadline=None)
    def test_population_accounting_exact(self, setup):
        weights, dark, total_steps, events, seed = setup
        engine = AggregateSimulation(weights, dark_counts=dark, rng=seed)
        expected_n = engine.n + sum(
            event.count for _, event in events
        )
        run_with_interventions(
            engine, total_steps, InterventionSchedule(events)
        )
        assert engine.n == expected_n

    @given(adversarial_run())
    @settings(max_examples=30, deadline=None)
    def test_k_grows_by_colour_additions(self, setup):
        weights, dark, total_steps, events, seed = setup
        engine = AggregateSimulation(weights, dark_counts=dark, rng=seed)
        k0 = engine.k
        additions = sum(
            isinstance(event, AddColour) for _, event in events
        )
        run_with_interventions(
            engine, total_steps, InterventionSchedule(events)
        )
        assert engine.k == k0 + additions


class TestBatchedAdversarialSustainability:
    """The fused (R, 2k) engine under the same schedules: the paper's
    invariants must hold in every replication simultaneously."""

    @given(adversarial_run(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_dark_invariant_survives_batch_wide(self, setup, replications):
        weights, dark, total_steps, events, seed = setup
        engine = BatchedAggregateSimulation(
            weights, dark, replications=replications, rng=seed
        )
        run_with_interventions(
            engine, total_steps, InterventionSchedule(events)
        )
        assert (engine.dark_counts() >= 1).all()
        assert engine.time == total_steps
        assert (engine.times() == total_steps).all()

    @given(adversarial_run(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_population_accounting_exact_per_replication(
        self, setup, replications
    ):
        weights, dark, total_steps, events, seed = setup
        engine = BatchedAggregateSimulation(
            weights, dark, replications=replications, rng=seed
        )
        expected_n = engine.n + sum(event.count for _, event in events)
        run_with_interventions(
            engine, total_steps, InterventionSchedule(events)
        )
        assert engine.n == expected_n
        totals = engine.dark_counts().sum(axis=1) + (
            engine.light_counts().sum(axis=1)
        )
        assert (totals == expected_n).all()

    @given(adversarial_run(), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_array_engine_matches_invariants(self, setup, replications):
        """The agent-level array engine under the same schedule, one
        engine per replication: conservation and dark survival in
        each."""
        weights, dark, total_steps, events, seed = setup
        colours = np.repeat(np.arange(len(dark)), dark)
        added = sum(isinstance(event, AddColour) for _, event in events)
        for child in spawn(make_rng(seed), replications):
            engine = ArraySimulation(
                Diversification(weights.copy()),
                colours,
                k=weights.k,
                rng=child,
            )
            expected_n = engine.n + sum(event.count for _, event in events)
            run_with_interventions(
                engine, total_steps, InterventionSchedule(events)
            )
            assert engine.n == expected_n
            counts = engine.colour_counts()
            assert counts.shape == (weights.k + added,)
            assert counts.sum() == expected_n
            assert (engine.dark_counts() >= 1).all()

    @given(
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(100, 2000),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_recolour_keeps_target_dark_representative(
        self, k, replications, total_steps, seed
    ):
        """A recolouring moves the source colour's whole support onto
        the target, so the target's dark representative is never erased
        and all non-source colours stay sustainable."""
        weights = WeightTable.uniform(k, 2.0)
        engine = BatchedAggregateSimulation(
            weights, [5] * k, replications=replications, rng=seed
        )
        schedule = InterventionSchedule(
            [(total_steps // 2, RecolourColour(source=0, target=1))]
        )
        run_with_interventions(engine, total_steps, schedule)
        dark = engine.dark_counts()
        assert (dark[:, 1:] >= 1).all()
        assert (engine.colour_counts()[:, 0] == 0).all()
        totals = engine.colour_counts().sum(axis=1)
        assert (totals == 5 * k).all()
