"""Cursor draws are ``take`` draws.

The row-batched event loop keeps its rows' stream cursors in its
working set and draws through :meth:`RowStreams.draw`, compacting the
cursors as rows retire and writing them back with
:meth:`RowStreams.set_cursors`.  Everything else (per-step mode, the
first iteration's carried arrivals) draws through
:meth:`RowStreams.take`.  The two share one refill rule, so a row's
sequence must not depend on which of them served it.  The property
below drives one stream set through cursor draws, compactions,
write-backs and interleaved takes, and a twin set through takes alone,
from rows whose cursors start at 1, mid-pool, at ``block - 1`` (an
event pair there refills and discards the last draw) and at ``block``.
``TestRowStreamsTake`` checks the draw-count bounds of ``take`` and
``TestRowStreamsSnapshot`` that a snapshot is a copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RowStreams
from repro.engine.rng import make_rng

ROWS = 6

operation = st.one_of(
    st.tuples(st.just("draw"), st.sampled_from([1, 2])),
    st.tuples(st.just("compact"), st.lists(st.booleans(), min_size=ROWS,
                                           max_size=ROWS)),
    st.tuples(st.just("take"), st.sets(st.integers(0, ROWS - 1),
                                       min_size=1),
              st.sampled_from([1, 2, 3])),
    st.tuples(st.just("regather"), st.sets(st.integers(0, ROWS - 1),
                                           min_size=1)),
)


def twins(seed: int, block: int, starts: list) -> tuple:
    """Two identical stream sets whose row ``r`` has its cursor at
    ``starts[r]``: a fresh row's cursor sits at ``block``, so a take of
    ``starts[r]`` draws refills its pool and leaves the cursor there."""
    pair = []
    for _ in range(2):
        streams = RowStreams.from_generator(make_rng(seed), ROWS, block=block)
        for row, start in enumerate(starts):
            streams.take([row], start)
        pair.append(streams)
    return tuple(pair)


class TestCursorDrawsMatchTake:
    @given(
        seed=st.integers(0, 2**31 - 1),
        block=st.sampled_from([4, 5, 256]),
        starts=st.lists(st.sampled_from(["first", "mid", "last", "end"]),
                        min_size=ROWS, max_size=ROWS),
        rows=st.sets(st.integers(0, ROWS - 1), min_size=1),
        ops=st.lists(operation, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_draws_and_state(self, seed, block, starts, rows, ops):
        offsets = {"first": 1, "mid": block // 2, "last": block - 1,
                   "end": block}
        cursor, reference = twins(
            seed, block, [offsets[start] for start in starts]
        )
        rows = np.array(sorted(rows))
        pos, lanes = cursor.cursors(rows)
        for op in ops:
            if op[0] == "draw":
                m = op[1]
                u, pos = cursor.draw(rows, pos, lanes[0] if m == 1
                                     else lanes, m)
                expected = reference.take(rows, m)
                assert u.shape == ((len(rows),) if m == 1
                                   else (2, len(rows)))
                np.testing.assert_array_equal(
                    u, expected[:, 0] if m == 1 else expected.T
                )
            elif op[0] == "compact":
                keep = np.array(op[1][: len(rows)])
                if not keep.any():
                    continue
                cursor.set_cursors(rows[~keep], pos[~keep])
                rows, pos = rows[keep], pos[keep]
                lanes = lanes.compress(keep, axis=1)
            elif op[0] == "take":
                cursor.set_cursors(rows, pos)
                taken = np.array(sorted(op[1]))
                np.testing.assert_array_equal(
                    cursor.take(taken, op[2]), reference.take(taken, op[2])
                )
                pos = cursor.cursors(rows)[0]
            else:
                cursor.set_cursors(rows, pos)
                rows = np.array(sorted(op[1]))
                pos, lanes = cursor.cursors(rows)
        cursor.set_cursors(rows, pos)
        after, expected = cursor.snapshot(), reference.snapshot()
        for field, value in expected.items():
            np.testing.assert_array_equal(after[field], value)


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


class TestRowStreamsSnapshot:
    def test_snapshot_not_aliased(self):
        """Drawing after a snapshot must not mutate it."""
        streams = RowStreams.from_generator(make_rng(3), 2)
        rows = np.arange(2)
        snap = streams.snapshot()
        pool = snap["pool"].copy()
        pos = snap["pos"].copy()
        streams.take(rows, 7)
        assert np.array_equal(snap["pool"], pool)
        assert np.array_equal(snap["pos"], pos)
