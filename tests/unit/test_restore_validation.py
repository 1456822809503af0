"""``restore()`` rejects checkpoint vectors of the wrong shape or range.

Broadcasting used to let a truncated ``times``/``pending``/``n`` vector
restore silently: a 4-row engine restored from length-1 clocks ran on
and reported one clock.  A row-stream cursor outside ``[0, block]`` was
accepted too and served draws from the wrong place in the pool.  The
scalar engines had the same gaps: the agent-level ``Simulation`` took a
negative draw-buffer cursor and replayed draws from the buffer's tail,
and ``MultiShadeAggregate`` took a pending arrival before its clock (the
clock then jumped backwards), a negative clock and negative shade
counts.  The batched and heterogeneous engines took any values in
correctly shaped fields: negative counts (a row then lost agents), an
``n`` that disagrees with the row totals or is below 2, ``ks`` pointing
into padding, values in padding columns, coins outside ``[0, 1]``,
negative clocks and pending arrivals before the clock (the row's clock
then ran backwards).  ``ArraySimulation`` took a negative buffer cursor
(the next run sliced the buffer from its tail), colours outside its
slots (the next run raised IndexError), an ``n`` that disagrees with the
stored agents, negative clocks, change counts and shades, and weights
that disagree with ``k``; a truncated buffer raised only after the
clocks, the states and the buffer were overwritten, and a ``k`` below
the engine's raised only after the weight table had grown.
"""

import numpy as np
import pytest

from repro.core.ablations import EagerRecolouring
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine import (
    AggregateSimulation,
    ArraySimulation,
    BatchedAggregateSimulation,
    HeterogeneousAggregateBatch,
    MultiShadeAggregate,
    Population,
    RowStreams,
    Simulation,
)
from repro.engine.array_engine import _BLOCK as ARRAY_BLOCK
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


# Corruptions of the selected ``rows`` of a batched or hetero payload,
# each paired with the message its rejection must name.


def negative_count(snap, rows):
    shift = snap["dark"][rows, 0] + 5  # row totals are kept
    snap["dark"][rows, 0] -= shift
    snap["light"][rows, 0] += shift


def n_off_by_one(snap, rows):
    snap["n"][rows] += 1


def single_agent(snap, rows):
    snap["dark"][rows] = 0
    snap["light"][rows] = 0
    snap["dark"][rows, 0] = 1
    snap["n"][rows] = 1


def weight_below_minimum(snap, rows):
    snap["weights"][rows, 0] = 0.5


def coin_above_one(snap, rows):
    snap["lighten"][rows, 0] = 1.5


def coin_below_zero(snap, rows):
    snap["lighten"][rows, 0] = -0.25


def negative_clock(snap, rows):
    snap["times"][rows] = -5
    snap["pending"][rows] = -1


def pending_before_clock(snap, rows):
    snap["pending"][rows] = snap["times"][rows] - 10


def pending_at_clock(snap, rows):
    snap["pending"][rows] = snap["times"][rows]


def pending_below_minus_one(snap, rows):
    snap["pending"][rows] = -2


ROW_CORRUPTIONS = [
    pytest.param(corrupt, match, id=corrupt.__name__)
    for corrupt, match in [
        (negative_count, "non-negative"),
        (n_off_by_one, "n does not match"),
        (single_agent, "two agents"),
        (weight_below_minimum, "weights"),
        (coin_above_one, r"\[0, 1\]"),
        (coin_below_zero, r"\[0, 1\]"),
        (negative_clock, "times"),
        (pending_before_clock, "pending"),
        (pending_at_clock, "pending"),
        (pending_below_minus_one, "pending"),
    ]
]


def ran(engine, steps: int = 500) -> dict:
    engine.run(steps)
    return engine.snapshot()


def assert_untouched(engine, before: dict) -> None:
    after = engine.snapshot()
    for field in ("weights", "ks", "dark", "light", "lighten", "times",
                  "pending", "n"):
        np.testing.assert_array_equal(after[field], before[field])
    for field in ("pool", "pos", "state"):
        np.testing.assert_array_equal(
            after["streams"][field], before["streams"][field]
        )


def assert_same_payload(after, before) -> None:
    """Two snapshot payloads hold equal values, nested dicts included."""
    assert isinstance(after, dict) and after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, dict):
            assert_same_payload(after[key], value)
        else:
            np.testing.assert_array_equal(after[key], value)


class TestHeteroPayloadValues:
    """Values the engine cannot run from, rejected before anything is
    restored.  Row 0 has two colours, so its column 2 is padding."""

    @pytest.mark.parametrize("corrupt, match", ROW_CORRUPTIONS)
    def test_corrupted_row_rejected(self, corrupt, match):
        snap = ran(hetero())
        corrupt(snap, 1)
        with pytest.raises(ValueError, match=match):
            hetero().restore(snap)

    @pytest.mark.parametrize("ks", [0, 4, -1])
    def test_ks_outside_the_width_rejected(self, ks):
        snap = ran(hetero())
        snap["ks"][0] = ks
        with pytest.raises(ValueError, match="ks"):
            hetero().restore(snap)

    def test_ks_pointing_into_padding_rejected(self):
        snap = ran(hetero())
        snap["ks"][0] = 3  # column 2 of row 0 has weight 0
        with pytest.raises(ValueError, match="weights"):
            hetero().restore(snap)

    @pytest.mark.parametrize("field", ["weights", "dark", "light", "lighten"])
    def test_padding_values_rejected(self, field):
        snap = ran(hetero())
        snap[field][0, 2] = 1
        if field in ("dark", "light"):
            snap["n"][0] += 1
        with pytest.raises(ValueError, match="padding"):
            hetero().restore(snap)

    def test_rejected_payload_restores_nothing(self):
        source = hetero()
        source.run(300)
        source.add_colour(2.0, 3, rows=[1])  # widens to k_max = 4
        snap = ran(source, 200)
        pending_before_clock(snap, 1)
        engine = hetero()
        engine.run(100)
        before = engine.snapshot()
        with pytest.raises(ValueError, match="pending"):
            engine.restore(snap)
        assert engine.k_max == 3
        assert_untouched(engine, before)


def rows_differ_in_weights(snap):
    snap["weights"][1, 0] = 2.5


def rows_differ_in_ks(snap):
    # Fold row 1's last colour into colour 0 and make it padding: a
    # valid heterogeneous payload, but not R copies of one table.
    for block in ("dark", "light"):
        snap[block][1, 0] += snap[block][1, -1]
        snap[block][1, -1] = 0
    snap["weights"][1, -1] = 0.0
    snap["lighten"][1, -1] = 0.0
    snap["ks"][1] -= 1


def rows_differ_in_n(snap):
    snap["dark"][1, 0] += 3
    snap["n"][1] += 3


class TestBatchedPayloadValues:
    """Batched snapshots are heterogeneous payloads of R identical
    rows; the batched restore also rejects rows that differ."""

    @pytest.mark.parametrize("corrupt, match", ROW_CORRUPTIONS)
    def test_corrupted_rows_rejected(self, corrupt, match):
        snap = ran(batched())
        corrupt(snap, slice(None))
        with pytest.raises(ValueError, match=match):
            batched().restore(snap)

    @pytest.mark.parametrize(
        "corrupt", [rows_differ_in_weights, rows_differ_in_ks, rows_differ_in_n]
    )
    def test_rows_that_differ_rejected(self, corrupt):
        snap = ran(batched())
        corrupt(snap)
        hetero_twin = HeterogeneousAggregateBatch(
            [WeightTable([1.0, 2.0, 3.0])] * 4, [[30, 20, 10]] * 4
        )
        hetero_twin.restore(snap)  # valid as a heterogeneous payload
        with pytest.raises(ValueError, match="differ"):
            batched().restore(snap)

    def test_old_batched_layout_rejected(self):
        snap = ran(batched())
        snap.pop("ks")
        snap.update(
            engine="BatchedAggregateSimulation",
            weights=snap["weights"][0],
            lighten=snap["lighten"][0],
            n=int(snap["n"][0]),
        )
        with pytest.raises(ValueError, match="BatchedAggregateSimulation"):
            batched().restore(snap)

    def test_rejected_payload_restores_nothing(self):
        source = batched()
        source.run(300)
        source.add_colour(2.0, 3)
        snap = ran(source, 200)
        pending_before_clock(snap, slice(None))
        engine = batched()
        engine.run(100)
        before = engine.snapshot()
        with pytest.raises(ValueError, match="pending"):
            engine.restore(snap)
        assert engine.k == engine.weights.k == 3
        assert_untouched(engine, before)


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

    @pytest.mark.parametrize("field, corrupt, match", [
        pytest.param(
            field, lambda value: value[:2], f"{field} has shape",
            id=f"{field}-two-rows",
        )
        for field in ("state", "inc", "has_uint32", "uinteger")
    ] + [
        pytest.param(
            "has_uint32", lambda value: np.full(3, 7), "0 or 1",
            id="has_uint32-seven",
        ),
        pytest.param(
            "uinteger", lambda value: np.full(3, 2**32, dtype=np.uint64),
            "invalid PCG64 state", id="uinteger-past-32-bits",
        ),
    ])
    def test_malformed_generator_state_restores_nothing(
        self, field, corrupt, match
    ):
        """A payload whose generator fields do not fit the rows used to
        overwrite the pool, the cursors and some rows' states before
        failing with IndexError; a ``has_uint32`` of 7 was accepted."""
        snap = self.snapshot()
        snap[field] = corrupt(snap[field])
        streams = RowStreams.from_generator(make_rng(0), 3)
        streams.take(np.arange(3), 4)
        before = streams.snapshot()
        with pytest.raises(ValueError, match=match):
            streams.restore(snap)
        assert_same_payload(streams.snapshot(), before)


class TestRowStreamsTake:
    """``take(rows, m)`` used to accept any ``m``: past the block it
    served the next row's pool (or raised IndexError on the last row
    after moving the cursor), and a negative ``m`` moved the cursor
    back over consumed draws."""

    @pytest.mark.parametrize("row, m", [(0, 6), (2, 6), (0, -1), (1, 0)])
    def test_draws_outside_the_block_rejected(self, row, m):
        streams = RowStreams.from_generator(make_rng(9), 3, block=4)
        streams.take(np.arange(3), 2)
        before = streams.snapshot()
        with pytest.raises(ValueError, match="1 <= m <= 4"):
            streams.take([row], m)
        after = streams.snapshot()
        for field, value in before.items():
            np.testing.assert_array_equal(after[field], value)


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


def array_engine(replications=None) -> ArraySimulation:
    return ArraySimulation(
        Diversification(WeightTable([1.0, 2.0])), np.arange(20) % 2, k=2,
        replications=replications, rng=3,
    )


class TestArrayRestore:
    """Snapshots of a 20-agent, k = 2 engine at t = 100, with a live
    draw buffer."""

    def snapshot(self, replications=None):
        engine = array_engine(replications)
        engine.run(100)
        return engine.snapshot()

    @pytest.mark.parametrize("cursor", [-5, -1, ARRAY_BLOCK + 1])
    def test_cursor_outside_the_block_rejected(self, cursor):
        snap = self.snapshot()
        snap["buf_pos"] = cursor
        with pytest.raises(ValueError, match="buf_pos"):
            array_engine().restore(snap)

    def test_colour_outside_the_slots_rejected(self):
        snap = self.snapshot()
        snap["colours"][3] = 7
        with pytest.raises(ValueError, match="colours"):
            array_engine().restore(snap)

    def test_negative_shade_rejected(self):
        snap = self.snapshot()
        snap["shades"][3] = -1
        with pytest.raises(ValueError, match="shades"):
            array_engine().restore(snap)

    def test_n_must_match_the_stored_agents(self):
        snap = self.snapshot()
        snap["n"] = 25
        with pytest.raises(ValueError, match="stored agents"):
            array_engine().restore(snap)

    @pytest.mark.parametrize("field", ["time", "changes"])
    def test_negative_counter_rejected(self, field):
        snap = self.snapshot()
        snap[field] = -3
        with pytest.raises(ValueError, match=field):
            array_engine().restore(snap)

    @pytest.mark.parametrize("field", ["buf_init", "buf_partners", "buf_coins"])
    def test_truncated_buffer_rejected(self, field):
        snap = self.snapshot()
        snap[field] = snap[field][:100]
        with pytest.raises(ValueError, match=field):
            array_engine().restore(snap)

    @pytest.mark.parametrize("field, agent", [
        ("buf_init", 20), ("buf_init", -1),
        ("buf_partners", 20), ("buf_partners", -1),
    ])
    def test_buffered_agent_outside_the_population_rejected(
        self, field, agent
    ):
        snap = self.snapshot()
        snap[field][ARRAY_BLOCK - 1] = agent
        with pytest.raises(ValueError, match=field):
            array_engine().restore(snap)

    def test_batched_buffer_shape_checked(self):
        snap = self.snapshot(replications=3)
        snap["buf_partners"] = snap["buf_partners"][:, :2]
        with pytest.raises(ValueError, match="buf_partners"):
            array_engine(replications=3).restore(snap)

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_disagreeing_with_the_weights_rejected(self, k):
        """A grown weight table needs as many colour slots; the slots
        cannot shrink.  The engine's table keeps its two colours."""
        snap = self.snapshot()
        snap["k"] = k
        snap["weights"] = np.array([1.0, 2.0, 5.0])
        engine = array_engine()
        with pytest.raises(ValueError, match="k="):
            engine.restore(snap)
        assert engine.protocol.weights.k == engine.k == 2

    def test_rejected_payload_restores_nothing(self):
        engine = array_engine()
        engine.run(7)
        before = engine.snapshot()
        snap = self.snapshot()
        snap["buf_init"] = snap["buf_init"][:100]
        with pytest.raises(ValueError):
            engine.restore(snap)
        after = engine.snapshot()
        assert after["time"] == before["time"] == 7
        assert after["buf_pos"] == before["buf_pos"]
        assert after["rng"] == before["rng"]
        for field in ("colours", "shades", "buf_init", "buf_partners"):
            np.testing.assert_array_equal(after[field], before[field])


def aggregate() -> AggregateSimulation:
    return AggregateSimulation(WeightTable([1.0, 2.0]), [20, 10], rng=3)


class TestMalformedRngPayload:
    """Every engine's ``restore()`` assigned the base generator's state
    last, so an ``rng`` payload without a ``state`` raised KeyError
    after the counts, clocks and streams had been replaced."""

    @pytest.mark.parametrize("build", [
        simulation, array_engine, aggregate, multishade, hetero, batched,
    ], ids=lambda build: build.__name__)
    def test_rejected_payload_restores_nothing(self, build):
        source = build()
        source.run(300)
        snap = source.snapshot()
        snap["rng"] = {"bit_generator": "PCG64"}
        engine = build()
        engine.run(100)
        before = engine.snapshot()
        with pytest.raises(ValueError, match="rng state"):
            engine.restore(snap)
        assert_same_payload(engine.snapshot(), before)
