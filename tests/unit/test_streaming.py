"""Streaming accumulators: exactness and merging.

The load-bearing contract is *bit-identity*: the O(1)-memory streaming
integrals must equal a sequential reduction over the materialised
trajectory exactly (same float additions in the same order).
"""

import numpy as np
import pytest

from repro.analysis import potentials as pot
from repro.analysis.streaming import (
    PotentialTrajectory,
    RunningMoments,
    StreamingPotentials,
    StreamingShares,
    potential_values,
    share_values,
)
from repro.core.weights import WeightTable
from repro.engine.aggregate import AggregateSimulation
from repro.engine.batched import BatchedAggregateSimulation
from repro.engine.hetero import HeterogeneousAggregateBatch
from repro.engine.rng import make_rng

WEIGHTS = [1.0, 2.0, 3.0]
DARK = [30, 20, 10]


def scalar_engine(seed=11):
    return AggregateSimulation(
        WeightTable(WEIGHTS), dark_counts=DARK, rng=make_rng(seed)
    )


def batched_engine(seed=11, replications=4):
    return BatchedAggregateSimulation(
        WeightTable(WEIGHTS), DARK, replications=replications, rng=seed
    )


def hetero_engine(seed=11):
    return HeterogeneousAggregateBatch(
        [WeightTable([1.0, 2.0]), WeightTable(WEIGHTS)],
        [[20, 10], DARK],
        rng=seed,
    )


class TestPotentialValues:
    def test_matches_scalar_analysis_functions(self):
        weights = WeightTable(WEIGHTS)
        dark = np.array([[12.0, 7.0, 3.0]])
        light = np.array([[4.0, 9.0, 2.0]])
        phi, psi, sigma = potential_values(dark, light, weights)
        assert phi[0] == pytest.approx(pot.phi(dark[0], weights))
        assert psi[0] == pytest.approx(pot.psi(light[0], weights))
        assert sigma[0] == pytest.approx(
            pot.sigma_squared(dark[0].sum(), light[0].sum(), weights)
        )

    def test_balanced_configuration_has_zero_phi(self):
        weights = WeightTable(WEIGHTS)
        dark = np.array([[2.0, 4.0, 6.0]])  # proportional to weights
        phi, _, _ = potential_values(dark, np.zeros_like(dark), weights)
        assert phi[0] == pytest.approx(0.0)

    def test_zero_weight_padding_excluded(self):
        """Padded hetero rows: the zero-weight column contributes
        nothing and the effective k shrinks."""
        padded_w = np.array([[1.0, 2.0, 0.0], WEIGHTS])
        dark = np.array([[5.0, 3.0, 0.0], [5.0, 3.0, 1.0]])
        light = np.zeros_like(dark)
        phi, _, _ = potential_values(dark, light, padded_w)
        narrow = WeightTable([1.0, 2.0])
        assert phi[0] == pytest.approx(pot.phi(dark[0, :2], narrow))

    def test_weight_shape_mismatch_rejected(self):
        dark = np.zeros((2, 3))
        with pytest.raises(ValueError, match="rows"):
            potential_values(dark, dark, np.ones((3, 3)))
        with pytest.raises(ValueError, match="wide"):
            potential_values(dark, dark, np.ones((2, 2)))

    def test_callable_weights_resolved(self):
        dark = np.array([[1.0, 2.0, 3.0]])
        direct = potential_values(dark, dark, WEIGHTS)
        lazy = potential_values(dark, dark, lambda: np.asarray(WEIGHTS))
        for a, b in zip(direct, lazy):
            assert np.array_equal(a, b)

    def test_share_values_fair_point(self):
        weights = WeightTable(WEIGHTS)
        dark = np.array([[1.0, 2.0, 3.0]])
        shares, error = share_values(dark, np.zeros_like(dark), weights)
        assert shares.sum(axis=1)[0] == pytest.approx(1.0)
        assert error[0] == pytest.approx(0.0)


class TestStreamingEqualsTrajectory:
    @pytest.mark.parametrize(
        "build,weights_of",
        [
            (scalar_engine, lambda e: WeightTable(WEIGHTS)),
            (batched_engine, lambda e: WeightTable(WEIGHTS)),
            (hetero_engine, lambda e: e.weights_matrix),
        ],
        ids=["scalar", "batched", "hetero"],
    )
    def test_integrals_bit_identical(self, build, weights_of):
        engine = build()
        weights = weights_of(engine)
        streaming = StreamingPotentials(weights)
        trajectory = PotentialTrajectory(weights)
        engine.attach_stream(streaming)
        engine.attach_stream(trajectory)
        for chunk in (170, 230, 1):
            engine.run(chunk)
        replayed = trajectory.integrals()
        for name in ("phi", "psi", "sigma"):
            assert np.array_equal(
                getattr(streaming, f"_int_{name}"), replayed[name]
            ), name

    def test_durations_cover_horizon(self):
        engine = scalar_engine()
        streaming = StreamingPotentials(WeightTable(WEIGHTS))
        engine.attach_stream(streaming)
        engine.run(400)
        assert streaming.durations()[0] == 400.0

    def test_summary_consistency(self):
        engine = batched_engine()
        streaming = StreamingPotentials(WeightTable(WEIGHTS))
        engine.attach_stream(streaming)
        engine.run(300)
        out = streaming.summary()
        for name in ("phi", "psi", "sigma"):
            assert np.all(out[f"min_{name}"] <= out[f"mean_{name}"])
            assert np.all(out[f"mean_{name}"] <= out[f"max_{name}"])
            assert np.all(out[f"min_{name}"] <= out[f"final_{name}"])
            assert np.all(out[f"final_{name}"] <= out[f"max_{name}"])


class TestSegmentMerging:
    def test_merge_serial_close_and_validated(self):
        whole = scalar_engine(seed=9)
        acc_whole = StreamingPotentials(WeightTable(WEIGHTS))
        whole.attach_stream(acc_whole)
        whole.run(250)
        whole.run(350)

        part = scalar_engine(seed=9)
        first = StreamingPotentials(WeightTable(WEIGHTS))
        part.attach_stream(first)
        part.run(250)
        part.detach_streams()
        second = StreamingPotentials(WeightTable(WEIGHTS))
        part.attach_stream(second)
        part.run(350)
        first.merge_serial(second)

        assert np.array_equal(first.events(), acc_whole.events())
        assert np.array_equal(first.durations(), acc_whole.durations())
        for name in ("phi", "psi", "sigma"):
            assert np.allclose(
                getattr(first, f"_int_{name}"),
                getattr(acc_whole, f"_int_{name}"),
                rtol=1e-12,
            )
            # max/min and final values are order-free: exact.
            assert np.array_equal(
                getattr(first, f"_max_{name}"),
                getattr(acc_whole, f"_max_{name}"),
            )
            assert np.array_equal(
                getattr(first, f"_cur_{name}"),
                getattr(acc_whole, f"_cur_{name}"),
            )

    def test_merge_serial_rejects_gaps(self):
        engine = scalar_engine()
        first = StreamingPotentials(WeightTable(WEIGHTS))
        engine.attach_stream(first)
        engine.run(100)
        engine.detach_streams()
        engine.run(50)  # unobserved gap
        second = StreamingPotentials(WeightTable(WEIGHTS))
        engine.attach_stream(second)
        engine.run(100)
        with pytest.raises(ValueError, match="does not start"):
            first.merge_serial(second)

    def test_merge_serial_rejects_type_mismatch(self):
        engine = scalar_engine()
        a = StreamingPotentials(WeightTable(WEIGHTS))
        b = StreamingShares(WeightTable(WEIGHTS))
        engine.attach_stream(a)
        engine.attach_stream(b)
        engine.run(10)
        with pytest.raises(TypeError):
            a.merge_serial(b)

    def test_concat_matches_separate_rows(self):
        """Row-concatenating two accumulators reproduces each slice —
        the fused mega-batch reassembly path."""
        left = batched_engine(seed=1, replications=2)
        right = batched_engine(seed=2, replications=3)
        acc_l = StreamingPotentials(WeightTable(WEIGHTS))
        acc_r = StreamingPotentials(WeightTable(WEIGHTS))
        left.attach_stream(acc_l)
        right.attach_stream(acc_r)
        left.run(200)
        right.run(200)
        joined = StreamingPotentials.concat([acc_l, acc_r])
        assert joined.rows == 5
        assert np.array_equal(
            joined._int_phi,
            np.concatenate([acc_l._int_phi, acc_r._int_phi]),
        )
        assert np.array_equal(
            joined.events(),
            np.concatenate([acc_l.events(), acc_r.events()]),
        )


class TestStreamingShares:
    def test_occupancy_rows_sum_to_one(self):
        engine = batched_engine(seed=3)
        acc = StreamingShares(WeightTable(WEIGHTS))
        engine.attach_stream(acc)
        engine.run(400)
        out = acc.summary()
        assert np.allclose(out["occupancy"].sum(axis=1), 1.0)
        assert np.all(out["max_error"] >= out["final_error"])
        assert np.all(out["duration"] == 400.0)

    def test_state_dict_is_not_aliased(self):
        engine = batched_engine(seed=4)
        acc = StreamingShares(WeightTable(WEIGHTS))
        engine.attach_stream(acc)
        engine.run(100)
        state = acc.state_dict()
        frozen = {key: value.copy() for key, value in state.items()}
        engine.run(100)
        for key, value in frozen.items():
            assert np.array_equal(state[key], value), key


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = make_rng(0)
        data = rng.normal(size=(200, 3))
        moments = RunningMoments(3)
        for row in data:
            moments.add(row)
        assert np.allclose(moments.mean(), data.mean(axis=0))
        assert np.allclose(moments.variance(), data.var(axis=0))
        assert np.array_equal(moments.minimum(), data.min(axis=0))
        assert np.array_equal(moments.maximum(), data.max(axis=0))
        assert np.all(moments.count() == 200)

    def test_partial_row_updates(self):
        moments = RunningMoments(4)
        moments.add(np.array([1.0, 2.0]), rows=np.array([0, 2]))
        moments.add(np.array([3.0]), rows=np.array([0]))
        assert moments.count().tolist() == [2, 0, 1, 0]
        assert moments.mean()[0] == pytest.approx(2.0)
        assert moments.variance()[1] == 0.0

    def test_merge_equals_single_pass(self):
        rng = make_rng(1)
        data = rng.normal(size=(300, 2))
        whole = RunningMoments(2)
        for row in data:
            whole.add(row)
        a, b = RunningMoments(2), RunningMoments(2)
        for row in data[:120]:
            a.add(row)
        for row in data[120:]:
            b.add(row)
        a.merge(b)
        assert np.array_equal(a.count(), whole.count())
        assert np.allclose(a.mean(), whole.mean(), rtol=1e-12)
        assert np.allclose(a.variance(), whole.variance(), rtol=1e-10)
        assert np.array_equal(a.minimum(), whole.minimum())
        assert np.array_equal(a.maximum(), whole.maximum())

    def test_merge_with_empty_segment(self):
        a = RunningMoments(2)
        a.add(np.array([1.0, 2.0]))
        a.merge(RunningMoments(2))
        assert a.count().tolist() == [1, 1]
        assert a.mean().tolist() == [1.0, 2.0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RunningMoments(0)
        a = RunningMoments(2)
        with pytest.raises(ValueError):
            a.merge(RunningMoments(3))
