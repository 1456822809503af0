"""``restore()`` rejects checkpoint vectors of the wrong shape or range.

Broadcasting used to let a truncated ``times``/``pending``/``n`` vector
restore silently: a 4-row engine restored from length-1 clocks ran on
and reported one clock.  A row-stream cursor outside ``[0, block]`` was
accepted too and served draws from the wrong place in the pool.
"""

import numpy as np
import pytest

from repro.core.weights import WeightTable
from repro.engine import (
    BatchedAggregateSimulation,
    HeterogeneousAggregateBatch,
    RowStreams,
)
from repro.engine.rng import make_rng


def batched() -> BatchedAggregateSimulation:
    return BatchedAggregateSimulation(
        WeightTable([1.0, 2.0, 3.0]), [30, 20, 10], replications=4, rng=3
    )


def hetero() -> HeterogeneousAggregateBatch:
    return HeterogeneousAggregateBatch(
        [[1.0, 2.0], [1.0, 2.0, 3.0]], [[20, 10], [15, 10, 5]], rng=3
    )


class TestBatchedRestore:
    def test_truncated_clocks_rejected(self):
        engine = batched()
        engine.run(100)
        snap = engine.snapshot()
        snap["times"] = snap["times"][:1]
        snap["pending"] = snap["pending"][:1]
        with pytest.raises(ValueError, match="times"):
            batched().restore(snap)

    @pytest.mark.parametrize("field", ["times", "pending"])
    def test_mis_shaped_vector_rejected(self, field):
        snap = batched().snapshot()
        snap[field] = np.zeros((4, 1), dtype=np.int64)
        with pytest.raises(ValueError, match=field):
            batched().restore(snap)

    def test_out_of_range_cursor_rejected(self):
        snap = batched().snapshot()
        snap["streams"]["pos"][0] = -5
        with pytest.raises(ValueError, match="cursors"):
            batched().restore(snap)


class TestHeteroRestore:
    @pytest.mark.parametrize("field", ["times", "pending", "n"])
    def test_truncated_vector_rejected(self, field):
        engine = hetero()
        engine.run(50)
        snap = engine.snapshot()
        snap[field] = snap[field][:1]
        with pytest.raises(ValueError, match=field):
            hetero().restore(snap)


class TestRowStreamsRestore:
    def snapshot(self):
        streams = RowStreams.from_generator(make_rng(9), 3)
        streams.take(np.arange(3), 5)
        return streams.snapshot()

    @pytest.mark.parametrize("cursor", [-5, -1, 257])
    def test_cursor_outside_the_pool_rejected(self, cursor):
        snap = self.snapshot()
        snap["pos"][1] = cursor
        with pytest.raises(ValueError, match="cursors"):
            RowStreams.from_generator(make_rng(0), 3).restore(snap)

    def test_cursor_shape_must_match_rows(self):
        snap = self.snapshot()
        snap["pos"] = snap["pos"][:2]
        with pytest.raises(ValueError, match="cursors have shape"):
            RowStreams.from_generator(make_rng(0), 3).restore(snap)

    @pytest.mark.parametrize("cursor", [0, 256])
    def test_cursor_bounds_are_inclusive(self, cursor):
        snap = self.snapshot()
        snap["pos"][:] = cursor
        streams = RowStreams.from_generator(make_rng(0), 3)
        streams.restore(snap)
        assert streams.take(np.arange(3), 2).shape == (3, 2)
