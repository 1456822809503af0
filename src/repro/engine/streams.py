"""Per-row uniform draw streams for the row-batched engine.

The row-batched event loop (:func:`repro.engine.hetero.advance_event_driven`,
which also runs every :class:`~repro.engine.batched.BatchedAggregateSimulation`)
advances many rows through one Python-level loop, but rows retire at
*different* iterations — when they are absorbed, overshoot their
horizon, or simply have an earlier target.  With a single shared
generator the shape of every vectorised draw depends on which rows are
still active, so the value a row consumes depends on everyone else's
horizon: splitting ``run(a); run(b)`` would perturb the stream and the
trajectories.

:class:`RowStreams` removes that coupling: every row owns an
independent PCG64 substream (seeded from the engine's base generator at
construction), and draws are served from a ``(B, block)`` pool of
pre-generated uniforms with per-row cursors.  A row's consumed sequence
is then a function of *its own* event history only, which is what makes
the engines' split-invariance contract (``run(a); run(b)`` bit-identical
to ``run(a + b)``, any per-row split) possible while the hot path stays
vectorised — refills amortise to one ``Generator.random`` call per row
per ``block`` draws.

:meth:`RowStreams.snapshot` is a read-only view of the pool, cursors and
per-row bit-generator states as plain arrays (no pickling), which engine
snapshots carry and the loop digests hash.  ``take`` rejects any draw
count outside ``[1, block]``.

The event loop draws twice per iteration — a gap, then an event pair —
and calls :func:`geometric_from_uniform` once, so all three keep their
NumPy call count low.  The loop's working set holds its rows' cursors
and flat pool offsets (:meth:`RowStreams.cursors`), compacts them as
rows retire and hands them back with :meth:`RowStreams.set_cursors`,
so each of its draws is a :meth:`RowStreams.draw`: the advanced
cursors, one max-reduce for the refill test, one add and one gather
through a flat view of the pool (row ``r``'s cursor ``c`` is element
``r * block + c``), with no gather or scatter of cursors by row index.
A gap draw is one 1-D gather.  :meth:`RowStreams.take` serves everything else (per-step
mode, the first iteration's carried arrivals, tests) with the same
refill rule, so the two kinds of draw interleave into one sequence per
row: a row refills, in place with ``Generator.random(out=)`` into a row
view of the pool bound at construction (the same doubles as
``random(block)``, without a temporary), exactly when its pool cannot
serve the request, whatever other rows share the call.
``geometric_from_uniform`` skips its mask when every ``p < 1``.  The
loop keeps its gap and event draws separate for the same reason (see
:func:`repro.engine.hetero.advance_event_driven`).
"""

from __future__ import annotations

import numpy as np

#: Uniforms pooled per row between refills.
_POOL_BLOCK = 256

#: Added to a row's pool start to address its next two draws.
_LANE_STEP = np.arange(2, dtype=np.int64)[:, None]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def geometric_from_uniform(uniforms, p):
    """Inverse-transform ``Geometric(p)`` on ``{1, 2, ...}``.

    ``G = 1 + floor(log1p(-U) / log1p(-p))`` maps ``U ~ Uniform[0, 1)``
    to ``P(G = g) = (1 - p)^(g-1) p`` exactly; ``p >= 1`` short-circuits
    to 1.  Huge jumps (vanishing ``p`` with ``U`` within an ulp of 1)
    are clamped to ``2**62`` steps — far past any representable horizon
    — so the float-to-int cast never overflows.
    """
    p = np.asarray(p, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    rest = p < 1.0
    if np.count_nonzero(rest) == rest.size:
        # Every p < 1 (the event loop's case): the same arithmetic on
        # the whole arrays, without the masked gather and scatter.
        return _jumps(uniforms, p)
    out = np.ones(p.shape, dtype=np.int64)
    out[rest] = _jumps(uniforms[rest], p[rest])
    return out


def _jumps(uniforms, p):
    """``1 + floor(log1p(-U) / log1p(-p))`` for ``p < 1``, clamped.

    The formula's operations in its order, applied in place to the
    first ``log1p``'s result; adding 1 on the right gives the same
    float as on the left.
    """
    gaps = np.log1p(-uniforms)
    gaps /= np.log1p(-p)
    np.floor(gaps, out=gaps)
    gaps += 1.0
    np.minimum(gaps, float(2**62), out=gaps)
    return gaps.astype(np.int64)


class RowStreams:
    """B independent per-row uniform streams with pooled draws."""

    def __init__(self, generators, *, block: int = _POOL_BLOCK):
        self._gens: list[np.random.Generator] = list(generators)
        if not self._gens:
            raise ValueError("need at least one row stream")
        if block < 4:
            raise ValueError("block must hold at least one event's draws")
        self._block = int(block)
        self._pool = np.zeros((len(self._gens), self._block), dtype=np.float64)
        # Row r's pool is _rows[r] and _flat[r * block : (r + 1) * block];
        # refills write the pool in place, so the views stay valid.
        self._rows = list(self._pool)
        self._flat = self._pool.reshape(-1)
        # Cursors start exhausted; the first take() refills on demand.
        self._pos = np.full(len(self._gens), self._block, dtype=np.int64)

    @classmethod
    def from_generator(
        cls,
        rng: np.random.Generator,
        rows: int,
        *,
        block: int = _POOL_BLOCK,
    ) -> "RowStreams":
        """Derive ``rows`` child streams from a base generator.

        The children are seeded from words *drawn* off ``rng`` (rather
        than ``SeedSequence.spawn``, which mutates its sequence), so the
        derivation depends only on the generator's current state.
        """
        if rows < 1:
            raise ValueError("need at least one row")
        words = rng.integers(
            0, np.iinfo(_U64).max, size=(rows, 4), dtype=_U64,
            endpoint=True,
        )
        gens = [
            np.random.Generator(
                np.random.PCG64(
                    np.random.SeedSequence([int(w) for w in row])
                )
            )
            for row in words
        ]
        return cls(gens, block=block)

    @property
    def rows(self) -> int:
        """Number of independent row streams."""
        return len(self._gens)

    def take(self, rows, m: int):
        """The next ``m`` uniforms of each selected row, ``(len(rows), m)``.

        Rows whose pool cannot serve ``m`` more draws refill first (the
        partial tail is discarded — deterministically, since the refill
        point is a pure function of the row's own take sequence).  ``m``
        must lie in ``[1, block]``: a longer take would read past the
        row's pool into the next row's, and ``m < 1`` would move the
        cursor back over consumed draws.

        The block is a transposed view, so each of its columns is
        contiguous.
        """
        if not 1 <= m <= self._block:
            raise ValueError(
                f"take needs 1 <= m <= {self._block} draws per row, got {m}"
            )
        rows = np.asarray(rows, dtype=np.int64)
        pos, end = self._serve(rows, self._pos[rows], m)
        self._pos[rows] = end
        # Gathered draw-major, an (m, len(rows)) block, and returned
        # transposed: each column of the result is one contiguous row.
        start = rows * self._block + pos
        return self._flat[start + np.arange(m)[:, None]].T

    # ------------------------------------------------------------------
    # Cursor draws: the caller holds the cursors of a fixed row set

    def cursors(self, rows):
        """The cursors of ``rows`` and their flat pool offsets, for
        :meth:`draw`.

        Returns fresh arrays ``(pos, lanes)``: ``pos[i]`` is row
        ``rows[i]``'s cursor and ``lanes[:, i]`` is ``rows[i] * block +
        (0, 1)``, so ``lanes[:m] + pos`` addresses each row's next ``m
        <= 2`` draws in the flat pool.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return self._pos[rows], rows * self._block + _LANE_STEP

    def set_cursors(self, rows, pos) -> None:
        """Write back the cursors :meth:`draw` advanced.  Do it before
        any :meth:`take` or :meth:`snapshot` touches the same rows."""
        self._pos[rows] = pos

    def draw(self, rows, pos, lanes, m: int):
        """:meth:`take` for a caller that holds the cursors itself.

        ``pos`` are the cursors of ``rows`` and ``lanes`` their pool
        offsets, both from :meth:`cursors`: the whole ``lanes`` for
        ``m = 2``, or its first row for a flat ``(len(rows),)`` draw
        when ``m = 1``.  Returns the draws, shaped like ``lanes``, and
        the advanced cursors, which the caller keeps in place of
        ``pos`` and hands back through :meth:`set_cursors`.  Rows
        refill exactly as in :meth:`take`, so cursor draws and takes
        interleave into one sequence per row.
        """
        pos, end = self._serve(rows, pos, m)
        return self._flat[lanes + pos], end

    def _serve(self, rows, pos, m: int):
        """Start and end cursors of each row's next ``m`` draws.

        The one refill rule: a row whose pool cannot serve ``m`` more
        draws refills in place and is served from the start of its new
        pool.  ``pos`` is not modified.
        """
        end = pos + m
        if end.size and end.max() > self._block:
            due = end > self._block
            for row in rows[due].tolist():
                self._gens[row].random(out=self._rows[row])
            pos = np.where(due, 0, pos)
            end = pos + m
        return pos, end

    # ------------------------------------------------------------------
    # State view

    def snapshot(self) -> dict:
        """Pool, cursors and per-row PCG64 states as plain arrays."""
        rows = self.rows
        state = np.zeros((rows, 2), dtype=_U64)
        inc = np.zeros((rows, 2), dtype=_U64)
        has_uint32 = np.zeros(rows, dtype=np.int64)
        uinteger = np.zeros(rows, dtype=_U64)
        for row, gen in enumerate(self._gens):
            raw = gen.bit_generator.state
            state[row, 0] = (raw["state"]["state"] >> 64) & _MASK64
            state[row, 1] = raw["state"]["state"] & _MASK64
            inc[row, 0] = (raw["state"]["inc"] >> 64) & _MASK64
            inc[row, 1] = raw["state"]["inc"] & _MASK64
            has_uint32[row] = int(raw["has_uint32"])
            uinteger[row] = int(raw["uinteger"])
        return {
            "block": self._block,
            "pool": self._pool.copy(),
            "pos": self._pos.copy(),
            "state": state,
            "inc": inc,
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
