"""``restore()`` rejects checkpoint vectors of the wrong shape or range.

Broadcasting used to let a truncated ``times``/``pending``/``n`` vector
restore silently: a 4-row engine restored from length-1 clocks ran on
and reported one clock.  A row-stream cursor outside ``[0, block]`` was
accepted too and served draws from the wrong place in the pool.  The
scalar engines had the same gaps: the agent-level ``Simulation`` took a
negative draw-buffer cursor and replayed draws from the buffer's tail,
and ``MultiShadeAggregate`` took a pending arrival before its clock (the
clock then jumped backwards), a negative clock and negative shade
counts.
"""

import numpy as np
import pytest

from repro.core.ablations import EagerRecolouring
from repro.core.weights import WeightTable
from repro.engine import (
    BatchedAggregateSimulation,
    HeterogeneousAggregateBatch,
    MultiShadeAggregate,
    Population,
    RowStreams,
    Simulation,
)
from repro.engine.rng import make_rng
from repro.engine.simulator import _BLOCK
from repro.topology import CycleGraph


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


def simulation(**kwargs) -> Simulation:
    weights = WeightTable([1.0, 2.0])
    protocol = EagerRecolouring(weights)  # arity 2
    population = Population.from_colours([0, 1] * 10, protocol, k=2)
    return Simulation(protocol, population, rng=3, **kwargs)


class TestSimulationRestore:
    def snapshot(self, **kwargs):
        engine = simulation(**kwargs)
        engine.run(100)
        return engine.snapshot()

    @pytest.mark.parametrize("cursor", [-3, -1, _BLOCK + 1])
    def test_cursor_outside_the_block_rejected(self, cursor):
        snap = self.snapshot()
        snap["buf_pos"] = cursor
        with pytest.raises(ValueError, match="buf_pos"):
            simulation().restore(snap)

    @pytest.mark.parametrize("cursor", [0, _BLOCK])
    def test_cursor_bounds_are_inclusive(self, cursor):
        snap = self.snapshot()
        snap["buf_pos"] = cursor
        engine = simulation().restore(snap)
        engine.run(10)
        assert engine.time == 110

    def test_truncated_initiators_rejected(self):
        snap = self.snapshot()
        snap["buf_initiators"] = snap["buf_initiators"][:100]
        with pytest.raises(ValueError, match="buf_initiators"):
            simulation().restore(snap)

    def test_partner_arity_mismatch_rejected(self):
        snap = self.snapshot()
        snap["buf_partners"] = snap["buf_partners"][:, :1]
        with pytest.raises(ValueError, match="buf_partners"):
            simulation().restore(snap)

    def test_complete_graph_needs_partner_draws(self):
        """A topology run buffers no partners; the complete graph
        cannot run from that buffer."""
        snap = self.snapshot(topology=CycleGraph(20))
        assert "buf_partners" not in snap
        with pytest.raises(ValueError, match="partner draws"):
            simulation().restore(snap)

    def test_rejected_payload_restores_nothing(self):
        engine = simulation()
        engine.run(50)
        before = engine.snapshot()
        snap = self.snapshot()
        snap["buf_pos"] = -3
        with pytest.raises(ValueError):
            engine.restore(snap)
        after = engine.snapshot()
        assert after["time"] == before["time"] == 50
        assert after["buf_pos"] == before["buf_pos"]
        np.testing.assert_array_equal(after["colours"], before["colours"])


def multishade() -> MultiShadeAggregate:
    return MultiShadeAggregate(WeightTable([1.0, 2.0]), [20, 10], rng=3)


class TestMultiShadeRestore:
    def snapshot(self):
        engine = multishade()
        engine.run(500)
        return engine.snapshot()

    @pytest.mark.parametrize("offset", [-100, 0])
    def test_pending_not_after_the_clock_rejected(self, offset):
        snap = self.snapshot()
        snap["pending"] = snap["time"] + offset
        with pytest.raises(ValueError, match="pending"):
            multishade().restore(snap)

    def test_pending_below_minus_one_rejected(self):
        snap = self.snapshot()
        snap["pending"] = -2
        with pytest.raises(ValueError, match="pending"):
            multishade().restore(snap)

    def test_negative_time_rejected(self):
        snap = self.snapshot()
        snap["time"] = -5
        snap["pending"] = -1
        with pytest.raises(ValueError, match="time"):
            multishade().restore(snap)

    def test_negative_shade_count_rejected(self):
        snap = self.snapshot()
        snap["shades"][0] = -4
        with pytest.raises(ValueError, match="non-negative"):
            multishade().restore(snap)

    def test_fewer_than_two_agents_rejected(self):
        snap = self.snapshot()
        snap["shades"][:] = 0
        snap["shades"][-1] = 1
        with pytest.raises(ValueError, match="two agents"):
            multishade().restore(snap)

    @pytest.mark.parametrize("pending", [-1, 10_000])
    def test_valid_pending_accepted(self, pending):
        snap = self.snapshot()
        snap["pending"] = pending
        engine = multishade().restore(snap)
        engine.run(100)
        assert engine.time == 600
