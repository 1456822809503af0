"""Property-based tests for the heterogeneous mega-batch engine:
padding columns never gain mass (runs *and* row-targeted
interventions), per-row population conservation, per-row clocks, seed
reproducibility, and bit identity with the batched engine on R copies
of one weight table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightTable
from repro.engine.batched import BatchedAggregateSimulation
from repro.engine.hetero import HeterogeneousAggregateBatch


def assert_padding_clean(engine: HeterogeneousAggregateBatch) -> None:
    """No mass, weight or lighten probability in padding columns, and
    per-row populations match the count totals."""
    pad = np.arange(engine.k_max)[None, :] >= engine.ks()[:, None]
    assert not engine.dark_counts()[pad].any()
    assert not engine.light_counts()[pad].any()
    assert not engine.weights_matrix()[pad].any()
    assert not engine.lighten_matrix()[pad].any()
    assert (engine.colour_counts().sum(axis=1) == engine.populations()).all()
    assert (engine.dark_counts() >= 0).all()
    assert (engine.light_counts() >= 0).all()


@st.composite
def hetero_setup(draw):
    rows = draw(st.integers(1, 8))
    tables = []
    darks = []
    lights = []
    for _ in range(rows):
        k = draw(st.integers(1, 4))
        tables.append(
            WeightTable(
                draw(
                    st.lists(
                        st.floats(
                            min_value=1.0, max_value=10.0, allow_nan=False
                        ),
                        min_size=k,
                        max_size=k,
                    )
                )
            )
        )
        dark = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
        light = draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))
        if sum(dark) + sum(light) < 2:
            dark[0] += 2
        darks.append(dark)
        lights.append(light)
    seed = draw(st.integers(0, 2**31 - 1))
    return tables, darks, lights, seed


@st.composite
def intervention_ops(draw):
    """A short programme of runs and row-targeted interventions."""
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(
            st.sampled_from(
                ["run", "step", "add_agents", "add_colour", "recolour"]
            )
        )
        ops.append(
            (
                kind,
                draw(st.integers(0, 200)),  # steps / count
                draw(st.floats(min_value=1.0, max_value=5.0)),  # weight
                draw(st.booleans()),  # dark shade
                draw(st.integers(0, 7)),  # row-subset selector seed
            )
        )
    return ops


class TestPaddingInvariants:
    @given(hetero_setup(), st.integers(0, 600))
    @settings(max_examples=30, deadline=None)
    def test_runs_never_touch_padding(self, setup, steps):
        tables, darks, lights, seed = setup
        engine = HeterogeneousAggregateBatch(
            tables, darks, lights, rng=seed
        )
        engine.run(steps)
        assert_padding_clean(engine)
        engine.run_per_step(min(steps, 50))
        assert_padding_clean(engine)

    @given(hetero_setup(), intervention_ops())
    @settings(max_examples=30, deadline=None)
    def test_interventions_never_leak_into_padding(self, setup, ops):
        """add_colour/recolour on padded rows keep every padding column
        at zero mass, zero weight and zero lighten probability — the
        core safety property of the ``(B, k_max)`` layout."""
        tables, darks, lights, seed = setup
        engine = HeterogeneousAggregateBatch(
            tables, darks, lights, rng=seed
        )
        rows = engine.rows
        for kind, amount, weight, dark, selector in ops:
            subset = np.flatnonzero(
                np.arange(rows) % (1 + selector % rows) == 0
            )
            if kind == "run":
                engine.run(amount % 120)
            elif kind == "step":
                engine.step()
            elif kind == "add_agents":
                engine.add_agents(0, amount % 10, dark=dark, rows=subset)
            elif kind == "add_colour":
                engine.add_colour(
                    weight, amount % 10, dark=dark, rows=subset
                )
            else:
                ks = engine.ks()[subset]
                colours = int(ks.min())
                engine.recolour(0, amount % colours, rows=subset)
            assert_padding_clean(engine)
        engine.run(100)
        assert_padding_clean(engine)

    @given(hetero_setup())
    @settings(max_examples=20, deadline=None)
    def test_add_colour_lands_at_each_rows_own_column(self, setup):
        tables, darks, lights, seed = setup
        engine = HeterogeneousAggregateBatch(
            tables, darks, lights, rng=seed
        )
        before = engine.ks()
        columns = engine.add_colour(2.0, 3)
        assert (columns == before).all()
        assert (engine.ks() == before + 1).all()
        counts = engine.colour_counts()
        assert (
            counts[np.arange(engine.rows), columns] >= 3
        ).all()
        assert_padding_clean(engine)


class TestHorizonsAndClocks:
    @given(hetero_setup(), st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_per_row_targets_reached_exactly(self, setup, base_steps):
        tables, darks, lights, seed = setup
        engine = HeterogeneousAggregateBatch(
            tables, darks, lights, rng=seed
        )
        steps = base_steps + 37 * np.arange(engine.rows)
        engine.run(steps)
        assert (engine.times() == steps).all()
        engine.run_per_step(np.flip(steps) % 40)
        assert (engine.times() == steps + np.flip(steps) % 40).all()

    @given(hetero_setup())
    @settings(max_examples=20, deadline=None)
    def test_exact_reproducibility_from_seed(self, setup):
        tables, darks, lights, seed = setup
        runs = []
        for _ in range(2):
            engine = HeterogeneousAggregateBatch(
                tables, darks, lights, rng=seed
            )
            engine.run(500)
            runs.append((engine.dark_counts(), engine.light_counts()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            HeterogeneousAggregateBatch(
                [WeightTable([1.0, 2.0])], [[-1, 5]]
            )

    def test_tiny_rows_rejected(self):
        with pytest.raises(ValueError, match="two agents"):
            HeterogeneousAggregateBatch(
                [WeightTable([1.0]), WeightTable([1.0, 2.0])],
                [[5], [1, 0]],
            )

    def test_padded_input_with_mass_in_padding_rejected(self):
        dark = np.array([[3, 2], [4, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="padding"):
            HeterogeneousAggregateBatch(
                [WeightTable([1.0, 2.0]), WeightTable([1.0])], dark
            )

    def test_ragged_row_length_must_match_k(self):
        with pytest.raises(ValueError, match="k_r"):
            HeterogeneousAggregateBatch(
                [WeightTable([1.0, 2.0])], [[3, 2, 1]]
            )

    def test_bad_lighten_rows_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            HeterogeneousAggregateBatch(
                [WeightTable([1.0, 2.0])], [[3, 2]],
                lighten_rows=[[0.5, 1.5]],
            )

    def test_unknown_colour_add_agents_rejected(self):
        engine = HeterogeneousAggregateBatch(
            [WeightTable([1.0, 2.0]), WeightTable([1.0])], [[3, 2], [5]]
        )
        with pytest.raises(ValueError, match="every selected row"):
            engine.add_agents(1, 2)  # row 1 has a single colour
        engine.add_agents(1, 2, rows=[0])  # row-targeted is fine

    def test_recolour_validates_per_row_colours(self):
        engine = HeterogeneousAggregateBatch(
            [WeightTable([1.0, 2.0]), WeightTable([1.0])], [[3, 2], [5]]
        )
        with pytest.raises(ValueError, match="existing colours"):
            engine.recolour(0, 1)
        engine.recolour(0, 1, rows=[0])
        assert engine.colour_counts()[0, 0] == 0

    def test_targets_must_not_precede_clocks(self):
        engine = HeterogeneousAggregateBatch(
            [WeightTable([1.0, 2.0])], [[3, 2]]
        )
        engine.run(10)
        with pytest.raises(ValueError, match="precede"):
            engine.run_to(5)


#: Row-stream snapshot fields: cursors, pooled uniforms and PCG64 states.
STREAM_FIELDS = ("pool", "pos", "state", "inc", "has_uint32", "uinteger")


@st.composite
def homogeneous_programme(draw):
    """One weight table replicated R times, optional lightening coins,
    and a programme of runs and interventions."""
    k = draw(st.integers(1, 4))
    weights = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    dark = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k))
    light = draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))
    if sum(dark) + sum(light) < 2:
        dark[0] += 2
    coins = draw(
        st.none()
        | st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "run", "run_per_step", "add_agents", "add_colour",
                        "recolour",
                    ]
                ),
                st.integers(0, 300),  # steps / count / colour
                st.floats(min_value=1.0, max_value=5.0),  # weight
                st.booleans(),  # dark shade
                st.integers(0, 7),  # colour selector
            ),
            min_size=1,
            max_size=8,
        )
    )
    replications = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    return weights, dark, light, coins, ops, replications, seed


class TestBatchedIsReplicatedHetero:
    """``BatchedAggregateSimulation(table, counts, replications=R)``
    and ``HeterogeneousAggregateBatch([table] * R, ...)`` built from
    the same seed are the same chain, bit for bit, under any sequence
    of runs and interventions."""

    @staticmethod
    def build(weights, dark, light, coins, replications, seed):
        batched = BatchedAggregateSimulation(
            WeightTable(weights), dark, light,
            replications=replications, rng=seed,
            lighten_probabilities=coins,
        )
        hetero = HeterogeneousAggregateBatch(
            [WeightTable(weights)] * replications,
            [dark] * replications,
            [light] * replications,
            rng=seed,
            lighten_rows=None if coins is None else [coins] * replications,
        )
        return batched, hetero

    @staticmethod
    def assert_identical(batched, hetero):
        np.testing.assert_array_equal(
            batched.dark_counts(), hetero.dark_counts()
        )
        np.testing.assert_array_equal(
            batched.light_counts(), hetero.light_counts()
        )
        np.testing.assert_array_equal(batched.times(), hetero.times())
        np.testing.assert_array_equal(
            np.tile(batched.weights.as_array(), (hetero.rows, 1)),
            hetero.weights_matrix(),
        )
        ours, theirs = batched.snapshot(), hetero.snapshot()
        np.testing.assert_array_equal(ours["pending"], theirs["pending"])
        for field in STREAM_FIELDS:
            np.testing.assert_array_equal(
                ours["streams"][field], theirs["streams"][field]
            )

    @given(homogeneous_programme())
    @settings(max_examples=40, deadline=None)
    def test_same_trajectory_bit_for_bit(self, programme):
        weights, dark, light, coins, ops, replications, seed = programme
        batched, hetero = self.build(
            weights, dark, light, coins, replications, seed
        )
        for kind, amount, weight, shade, selector in ops:
            k = batched.k
            if kind == "run":
                batched.run(amount)
                hetero.run(amount)
            elif kind == "run_per_step":
                batched.run_per_step(amount % 25)
                hetero.run_per_step(amount % 25)
            elif kind == "add_agents":
                for engine in (batched, hetero):
                    engine.add_agents(selector % k, amount % 10, dark=shade)
            elif kind == "add_colour":
                for engine in (batched, hetero):
                    engine.add_colour(weight, amount % 10, dark=shade)
            else:
                for engine in (batched, hetero):
                    engine.recolour(selector % k, amount % k)
            self.assert_identical(batched, hetero)
