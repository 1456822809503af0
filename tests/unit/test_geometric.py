"""``geometric_from_uniform``: the inverse transform behind every gap.

The row-batched event loop turns one pooled uniform per row into the
number of steps to the row's next productive interaction, so this map
decides the law of every jump: ``P(G = g) = (1 - p)^(g-1) p`` on
``{1, 2, ...}``, with ``p >= 1`` meaning "the next step".
"""

import numpy as np
import pytest

from repro.engine.rng import make_rng
from repro.engine.streams import geometric_from_uniform


class TestGeometricFromUniform:
    @pytest.mark.parametrize("g", [1, 2, 3, 7, 20])
    def test_cdf_boundaries(self, g):
        """``U`` just below ``F(g) = 1 - (1-p)^g`` maps to ``g``, just
        above it to ``g + 1``: the map is the quantile function."""
        p = 0.25
        cdf = 1.0 - (1.0 - p) ** g
        out = geometric_from_uniform([cdf - 1e-9, cdf + 1e-9], [p, p])
        assert out.tolist() == [g, g + 1]

    def test_certain_events_take_one_step(self):
        uniforms = np.array([0.0, 0.5, 0.999])
        out = geometric_from_uniform(uniforms, np.array([1.0, 1.0, 3.0]))
        assert out.tolist() == [1, 1, 1]

    def test_mixed_rows_match_the_all_uncertain_path(self):
        """The masked path (some ``p >= 1``) gives each ``p < 1`` entry
        the value the unmasked path gives it, keeping shape and dtype."""
        rng = make_rng(3)
        uniforms = rng.random((4, 5))
        p = rng.uniform(0.01, 0.9, size=(4, 5))
        p[1, 2] = p[3, 0] = 1.0
        out = geometric_from_uniform(uniforms, p)
        assert out.shape == (4, 5)
        assert out.dtype == np.int64
        uncertain = p < 1.0
        assert np.array_equal(
            out[uncertain],
            geometric_from_uniform(uniforms[uncertain], p[uncertain]),
        )
        assert (out[~uncertain] == 1).all()

    def test_huge_jumps_are_clamped(self):
        """A vanishing ``p`` with ``U`` an ulp below 1 would overflow
        the int64 cast; the jump is clamped to ``2**62`` instead."""
        out = geometric_from_uniform([np.nextafter(1.0, 0.0)], [1e-300])
        assert out.tolist() == [2**62]

    def test_sample_law(self):
        """Fed real uniforms, the jumps have mean ``1/p`` and
        ``P(G = 1) = p``."""
        p = 0.2
        jumps = geometric_from_uniform(
            make_rng(0).random(200_000), np.full(200_000, p)
        )
        assert jumps.min() == 1
        assert jumps.mean() == pytest.approx(1.0 / p, rel=0.01)
        assert (jumps == 1).mean() == pytest.approx(p, rel=0.02)
