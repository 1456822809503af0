"""The chain sampler is its per-step reference.

:func:`repro.analysis.markov.simulate_chain` walks its one block of
uniforms in chunks of Python floats and picks each next state with
``bisect_right`` on the rows' cumulative sums held as Python lists.  The
properties below compare its visit counts with :func:`reference_visits`,
the loop it replaced, which makes one ``np.searchsorted`` call per step.
They draw random row-stochastic matrices with 1 to 12 states, some of
them with sub-stochastic rows (a uniform past a row's last cumulative
sum sends the walk to ``size``, which the ``state >= size`` clamp folds
into the last state), random starts and seeds, and step counts of 0, 1
and on either side of the sampler's chunk size.  A start that is not a
state is refused before any draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.markov import _CHUNK, simulate_chain
from repro.engine.rng import make_rng


def reference_visits(P, start, steps, rng):
    """Visit counts of the chain, one ``np.searchsorted`` per step."""
    P = np.asarray(P, dtype=np.float64)
    rng = make_rng(rng)
    size = P.shape[0]
    cumulative = np.cumsum(P, axis=1)
    visits = np.zeros(size, dtype=np.int64)
    state = start
    uniforms = rng.random(steps)
    for t in range(steps):
        state = int(
            np.searchsorted(cumulative[state], uniforms[t], side="right")
        )
        if state >= size:  # numerical edge
            state = size - 1
        visits[state] += 1
    return visits


@st.composite
def chains(draw):
    """A square matrix of non-negative entries whose rows sum to 1, or,
    for the rows scaled down, to less."""
    size = draw(st.integers(1, 12))
    entries = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = []
    for _ in range(size):
        row = np.asarray(
            draw(st.lists(entries, min_size=size, max_size=size))
        )
        if row.sum() == 0.0:
            row[draw(st.integers(0, size - 1))] = 1.0
        row = row / row.sum()
        if draw(st.booleans()):
            row = row * draw(st.floats(0.25, 0.95))
        rows.append(row)
    return np.vstack(rows)


step_counts = st.one_of(
    st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
    st.integers(0, 3 * _CHUNK),
)


class TestSamplerIsPerStepReference:
    @given(
        P=chains(),
        data=st.data(),
        steps=step_counts,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_visits_and_generator_state(self, P, data, steps, seed):
        start = data.draw(st.integers(0, P.shape[0] - 1))
        rng, twin = make_rng(seed), make_rng(seed)
        visits = simulate_chain(P, start, steps, rng=rng)
        assert visits.dtype == np.int64
        np.testing.assert_array_equal(
            visits, reference_visits(P, start, steps, twin)
        )
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_clamp_folds_overflow_into_the_last_state(self):
        """Rows summing to 0.5: about half of all uniforms fall past the
        last cumulative sum and count as visits to the last state."""
        P = np.array([[0.25, 0.25, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        steps = 2 * _CHUNK + 7
        visits = simulate_chain(P, 1, steps, rng=3)
        np.testing.assert_array_equal(
            visits, reference_visits(P, 1, steps, 3)
        )
        assert visits[2] > steps // 3


class TestStartIsAState:
    """A negative start used to wrap to a state counted from the end,
    and a start of ``size`` ended in a bare ``IndexError``."""

    P = np.array([[0.5, 0.5], [0.25, 0.75]])

    @pytest.mark.parametrize("start", [-1, 2])
    def test_out_of_range_start_raises_before_drawing(self, start):
        rng = make_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="start"):
            simulate_chain(self.P, start, 3, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("start", [0, 1])
    def test_first_and_last_states_keep_their_draws(self, start):
        rng, twin = make_rng(5), make_rng(5)
        visits = simulate_chain(self.P, start, 50, rng=rng)
        np.testing.assert_array_equal(
            visits, reference_visits(self.P, start, 50, twin)
        )
        assert rng.bit_generator.state == twin.bit_generator.state
