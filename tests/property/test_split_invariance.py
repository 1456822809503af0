"""Split-invariance property suites for every engine.

The contract: for EVERY engine and ANY split point, ``run(a); run(b)``
leaves the engine in the same state as the uninterrupted
``run(a + b)`` — counts, clocks, change totals, buffered draws, row
streams, pending arrivals and the generator state, which is everything
``snapshot()`` returns.  The suites drive each engine to a
hypothesis-chosen split (including split 0, the full horizon,
mid-buffer splits for the block-buffered agent engines and per-row
splits for the heterogeneous engine's ``run_to``) and compare the two
snapshots field by field.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.interventions import AddAgents, AddColour
from repro.adversary.schedule import InterventionSchedule, run_with_interventions
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine import (
    AggregateSimulation,
    ArraySimulation,
    BatchedAggregateSimulation,
    HeterogeneousAggregateBatch,
    MultiShadeAggregate,
    Population,
    RoundRobinScheduler,
    Simulation,
)
from repro.experiments.recorder import CountRecorder

WEIGHTS = [1.0, 2.0, 3.0]
DARK = [30, 20, 10]


def assert_same_snapshot(split, whole):
    """Equal ``snapshot()`` trees: same keys, equal arrays and scalars."""
    assert_same_tree(split.snapshot(), whole.snapshot(), "snapshot")


def assert_same_tree(a, b, path):
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            assert_same_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
        assert a.dtype == b.dtype, path
    else:
        assert a == b, path


class TestAggregateSplitInvariance:
    @given(
        seed=st.integers(0, 2**31 - 1),
        split=st.integers(0, 600),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_split_matches_uninterrupted(self, seed, split):
        total = 600
        whole = AggregateSimulation(
            WeightTable(WEIGHTS), dark_counts=DARK, rng=seed
        )
        whole.run(total)
        split_run = AggregateSimulation(
            WeightTable(WEIGHTS), dark_counts=DARK, rng=seed
        )
        split_run.run(split)
        split_run.run(total - split)
        assert_same_snapshot(split_run, whole)

    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, 400))
    @settings(max_examples=10, deadline=None)
    def test_snapshot_is_read_only(self, seed, split):
        """Taking a snapshot must not perturb the trajectory."""
        total = 400
        weights = WeightTable(WEIGHTS)
        plain = AggregateSimulation(weights, dark_counts=DARK, rng=seed)
        plain.run(total)
        observed = AggregateSimulation(weights, dark_counts=DARK, rng=seed)
        observed.run(split)
        observed.snapshot()
        observed.run(total - split)
        assert_same_snapshot(observed, plain)


class TestMultiShadeSplitInvariance:
    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_any_split_matches_uninterrupted(self, seed, split):
        total = 500
        counts = [12, 10, 8]
        whole = MultiShadeAggregate(
            WeightTable(WEIGHTS), colour_counts=counts, rng=seed
        )
        whole.run(total)
        split_run = MultiShadeAggregate(
            WeightTable(WEIGHTS), colour_counts=counts, rng=seed
        )
        split_run.run(split)
        split_run.run(total - split)
        assert_same_snapshot(split_run, whole)


class TestBatchedSplitInvariance:
    @given(
        seed=st.integers(0, 2**31 - 1),
        split=st.integers(0, 500),
        replications=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_split_matches_uninterrupted(
        self, seed, split, replications
    ):
        total = 500

        def build():
            return BatchedAggregateSimulation(
                WeightTable(WEIGHTS), DARK, replications=replications,
                rng=seed,
            )

        whole = build()
        whole.run(total)
        split_run = build()
        split_run.run(split)
        split_run.run(total - split)
        assert_same_snapshot(split_run, whole)


class TestHeteroSplitInvariance:
    @given(
        seed=st.integers(0, 2**31 - 1),
        split_a=st.integers(0, 300),
        split_b=st.integers(0, 400),
    )
    @settings(max_examples=25, deadline=None)
    def test_per_row_splits_match_uninterrupted(
        self, seed, split_a, split_b
    ):
        """Rows may stop at *different* per-row clocks in between."""
        darks = [[20, 10], [15, 10, 5]]
        horizons = np.asarray([300, 400])

        def build():
            return HeterogeneousAggregateBatch(
                [WeightTable([1.0, 2.0]), WeightTable(WEIGHTS)], darks,
                rng=seed,
            )

        whole = build()
        whole.run_to(horizons)
        split_run = build()
        split_run.run_to(np.asarray([split_a, split_b]))
        split_run.run_to(horizons)
        assert_same_snapshot(split_run, whole)


def build_simulation(seed, scheduler=None):
    weights = WeightTable(WEIGHTS)
    protocol = Diversification(weights)
    colours = [i % weights.k for i in range(12)]
    population = Population.from_colours(colours, protocol, k=weights.k)
    kwargs = {} if scheduler is None else {"scheduler": scheduler}
    return Simulation(protocol, population, rng=seed, **kwargs)


class TestSimulationSplitInvariance:
    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_any_split_matches_uninterrupted(self, seed, split):
        """Splits land mid-buffer: the engine pre-draws scheduling in
        blocks, and the split run must consume the same draws."""
        total = 500
        whole = build_simulation(seed)
        whole.run(total)
        split_run = build_simulation(seed)
        split_run.run(split)
        split_run.run(total - split)
        assert_same_snapshot(split_run, whole)

    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, 300))
    @settings(max_examples=10, deadline=None)
    def test_round_robin_scheduler_split(self, seed, split):
        total = 300
        whole = build_simulation(seed, scheduler=RoundRobinScheduler())
        whole.run(total)
        split_run = build_simulation(seed, scheduler=RoundRobinScheduler())
        split_run.run(split)
        split_run.run(total - split)
        assert_same_snapshot(split_run, whole)


class TestArraySplitInvariance:
    @given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, 700))
    @settings(max_examples=15, deadline=None)
    def test_single_any_split_matches_uninterrupted(self, seed, split):
        total = 700
        colours = np.asarray([i % len(WEIGHTS) for i in range(16)])

        def build():
            return ArraySimulation(
                Diversification(WeightTable(WEIGHTS)),
                colours,
                k=len(WEIGHTS),
                rng=seed,
            )

        whole = build()
        whole.run(total)
        split_run = build()
        split_run.run(split)
        split_run.run(total - split)
        assert_same_snapshot(split_run, whole)


class TestScheduledSplitInvariance:
    """The segmented runner splits ``run`` at every intervention and
    record time; recording at an interval that divides neither the
    horizon nor the intervention times leaves the trajectory alone."""

    @given(seed=st.integers(0, 2**31 - 1), interval=st.integers(1, 200))
    @settings(max_examples=20, deadline=None)
    def test_recording_does_not_perturb_the_run(self, seed, interval):
        total = 900

        def schedule():
            return InterventionSchedule(
                [
                    (250, AddAgents(0, 5, dark=True)),
                    (600, AddColour(2.0, 3, dark=True)),
                ]
            )

        def build():
            return AggregateSimulation(
                WeightTable(WEIGHTS), dark_counts=DARK, rng=seed
            )

        plain = build()
        run_with_interventions(plain, total, schedule())
        recorded = build()
        recorder = CountRecorder(interval)
        run_with_interventions(
            recorded, total, schedule(), recorder=recorder
        )
        assert_same_snapshot(recorded, plain)
        assert recorder.times()[-1] == total
