"""Unit tests for the aggregate (count-based) engine."""

import numpy as np
import pytest

from repro.core.weights import WeightTable
from repro.engine.aggregate import (
    AggregateSimulation,
    _pick_weighted,
    resolve_lighten_probabilities,
)
from repro.engine.batched import BatchedAggregateSimulation
from repro.engine.rng import make_rng


def build(weights=None, dark=(5, 5, 5), light=None, seed=0, **kwargs):
    weights = weights or WeightTable([1.0, 2.0, 3.0])
    return AggregateSimulation(
        weights, dark_counts=dark, light_counts=light, rng=seed, **kwargs
    )


class TestConstruction:
    def test_counts_must_match_k(self):
        with pytest.raises(ValueError):
            AggregateSimulation(WeightTable([1.0, 2.0]), dark_counts=[5])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            AggregateSimulation(WeightTable([1.0]), dark_counts=[-1, ][:1])

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            AggregateSimulation(WeightTable([1.0]), dark_counts=[1])

    def test_default_light_counts_zero(self):
        engine = build()
        np.testing.assert_array_equal(engine.light_counts(), [0, 0, 0])

    def test_lighten_probabilities_default(self):
        engine = build()
        assert engine._lighten == pytest.approx([1.0, 0.5, 1 / 3])

    def test_lighten_probabilities_override(self):
        engine = build(lighten_probabilities=[1.0, 1.0, 1.0])
        assert engine._lighten == [1.0, 1.0, 1.0]

    def test_lighten_probabilities_validated(self):
        with pytest.raises(ValueError):
            build(lighten_probabilities=[1.0, 2.0, 0.5])

    def test_colour_counts_sum(self):
        engine = build(dark=(3, 4, 5), light=(1, 1, 1))
        assert engine.n == 15
        np.testing.assert_array_equal(engine.colour_counts(), [4, 5, 6])


class TestResolveLightenProbabilities:
    """The one validation of the lightening coins, shared by the scalar
    and the replicated engine."""

    def test_override_keeps_the_closed_interval(self):
        """0 and 1 are legal coins (the A2 ablation uses 1); integers
        come back as floats."""
        weights = WeightTable([1.0, 2.0, 3.0])
        resolved = resolve_lighten_probabilities(weights, [1, 0, 0.5])
        assert resolved == [1.0, 0.0, 0.5]
        assert all(isinstance(p, float) for p in resolved)

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ([1.0, 1.0], "length k"),
            ([1.0, -0.1, 0.5], r"in \[0, 1\]"),
            ([1.0, 1.5, 0.5], r"in \[0, 1\]"),
        ],
        ids=["short", "negative", "above-one"],
    )
    def test_engines_reject_a_bad_override(self, engine, override, message):
        weights = WeightTable([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=message):
            if engine == "scalar":
                AggregateSimulation(
                    weights, dark_counts=[5, 5, 5], rng=0,
                    lighten_probabilities=override,
                )
            else:
                BatchedAggregateSimulation(
                    weights, [5, 5, 5], replications=2, rng=0,
                    lighten_probabilities=override,
                )


class TestPerStep:
    def test_step_conserves_population(self):
        engine = build(dark=(10, 10, 10))
        for _ in range(2000):
            engine.step()
        assert engine.n == 30

    def test_time_advances(self):
        engine = build()
        engine.step()
        engine.step()
        assert engine.time == 2

    def test_dark_counts_never_hit_zero(self):
        """Structural sustainability: lightening needs A_i >= 2."""
        engine = build(dark=(1, 1, 28))
        for _ in range(5000):
            engine.step()
        assert (engine.dark_counts() >= 1).all()

    def test_counts_stay_non_negative(self):
        engine = build(dark=(2, 2, 2), light=(1, 1, 1))
        for _ in range(5000):
            engine.step()
        assert (engine.dark_counts() >= 0).all()
        assert (engine.light_counts() >= 0).all()


class TestEventDriven:
    def test_run_reaches_exact_horizon(self):
        engine = build(dark=(20, 20, 20))
        engine.run(12_345)
        assert engine.time == 12_345

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            build().run(-5)

    def test_run_conserves_population(self):
        engine = build(dark=(40, 40, 40))
        engine.run(100_000)
        assert engine.n == 120

    def test_run_preserves_dark_invariant(self):
        engine = build(dark=(1, 1, 58))
        engine.run(200_000)
        assert (engine.dark_counts() >= 1).all()

    def test_seed_reproducibility(self):
        a = build(dark=(30, 30, 30), seed=3)
        b = build(dark=(30, 30, 30), seed=3)
        a.run(50_000)
        b.run(50_000)
        np.testing.assert_array_equal(a.dark_counts(), b.dark_counts())
        np.testing.assert_array_equal(a.light_counts(), b.light_counts())

    def test_converges_to_fair_shares(self):
        weights = WeightTable([1.0, 2.0, 3.0])
        engine = AggregateSimulation(
            weights, dark_counts=[598, 1, 1], rng=42
        )
        engine.run(2_000_000)
        shares = engine.colour_counts() / engine.n
        np.testing.assert_allclose(
            shares, weights.fair_shares(), atol=0.08
        )

    def test_run_until_hits_predicate(self):
        engine = build(dark=(58, 1, 1), seed=9)

        def balancedish(e):
            counts = e.colour_counts()
            return counts.max() - counts.min() < 30

        hit = engine.run_until(balancedish, max_steps=500_000)
        assert hit is not None
        assert hit == engine.time

    def test_run_until_respects_max_steps(self):
        engine = build(dark=(20, 20, 20), seed=1)
        hit = engine.run_until(lambda e: False, max_steps=1000)
        assert hit is None
        assert engine.time == 1000

    def test_run_until_immediate_hit(self):
        engine = build(dark=(20, 20, 20))
        assert engine.run_until(lambda e: True, max_steps=10) == 0


class TestAdversaryHooks:
    def test_add_agents(self):
        engine = build(dark=(5, 5, 5))
        engine.add_agents(1, 10, dark=True)
        assert engine.dark_counts()[1] == 15
        assert engine.n == 25

    def test_add_agents_light(self):
        engine = build()
        engine.add_agents(0, 3, dark=False)
        assert engine.light_counts()[0] == 3

    def test_add_agents_unknown_colour(self):
        with pytest.raises(ValueError):
            build().add_agents(7, 1)

    def test_add_colour_extends_everything(self):
        weights = WeightTable([1.0, 2.0, 3.0])
        engine = AggregateSimulation(weights, dark_counts=[5, 5, 5], rng=0)
        colour = engine.add_colour(4.0, count=2)
        assert colour == 3
        assert engine.k == 4
        assert weights.k == 4
        assert engine.dark_counts()[3] == 2
        assert engine._lighten[3] == pytest.approx(0.25)

    def test_recolour_moves_all_mass(self):
        engine = build(dark=(5, 5, 5), light=(2, 0, 0))
        engine.recolour(0, 2)
        np.testing.assert_array_equal(engine.colour_counts(), [0, 5, 12])

    def test_recolour_same_colour_noop(self):
        engine = build(dark=(5, 5, 5))
        engine.recolour(1, 1)
        np.testing.assert_array_equal(engine.dark_counts(), [5, 5, 5])

    def test_recolour_validates_colours(self):
        with pytest.raises(ValueError):
            build().recolour(0, 9)


class TestPickWeighted:
    def test_deterministic_single_mass(self):
        rng = make_rng(0)
        assert _pick_weighted([0.0, 5.0, 0.0], rng) == 1

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            _pick_weighted([0.0, 0.0], make_rng(0))

    def test_distribution_roughly_proportional(self):
        rng = make_rng(1)
        draws = [_pick_weighted([1.0, 3.0], rng) for _ in range(20_000)]
        share = sum(draws) / len(draws)
        assert share == pytest.approx(0.75, abs=0.02)
