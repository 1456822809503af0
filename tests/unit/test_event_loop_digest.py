"""Bit-exact digests of the row-batched event loop.

:func:`repro.engine.hetero.advance_event_driven` drives the
heterogeneous engine and its replicated special case, the batched
engine, and every trajectory it produces is a fixed function of the
seed.  Each case below runs one engine from a fixed seed through one
path of the loop and hashes (SHA-256) the final counts, clocks,
pending arrivals and row-stream state.

The constants were recorded from the original loop, before it was
restructured for speed, so they pin the exact draws and the exact
float arithmetic: a consumed uniform out of order, a refill at a
different point or a sum regrouped in another order changes a digest.
The wide case (240 rows, four weight tables, ragged populations and
targets) was recorded before the loop's working copy was kept
row-contiguous as rows retire; it compacts that copy hundreds of
times.  ``TestWorkingLayout`` checks the layout itself.
"""

import hashlib

import numpy as np

from repro.core.weights import WeightTable
from repro.engine import BatchedAggregateSimulation, HeterogeneousAggregateBatch
from repro.engine.hetero import _ActiveRows

STREAM_FIELDS = ("pool", "pos", "state", "inc", "has_uint32", "uinteger")


def digest(engine) -> str:
    """SHA-256 over counts, clocks, pending arrivals and the row-stream
    snapshot, each array with its dtype and shape."""
    snap = engine.snapshot()
    parts = [
        engine.dark_counts(),
        engine.light_counts(),
        engine.times(),
        snap["pending"],
        *(snap["streams"][field] for field in STREAM_FIELDS),
    ]
    sha = hashlib.sha256()
    for part in parts:
        array = np.ascontiguousarray(part)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def batched(**kwargs) -> BatchedAggregateSimulation:
    return BatchedAggregateSimulation(
        WeightTable([1.0, 2.0, 3.0]), [40, 30, 20],
        replications=6, rng=11, **kwargs,
    )


def hetero(**kwargs) -> HeterogeneousAggregateBatch:
    return HeterogeneousAggregateBatch(
        [[1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0], [1.0, 3.0, 9.0]],
        [[30, 20], [25, 15, 10], [12, 12, 12, 12], [40, 20, 10]],
        rng=23, **kwargs,
    )


#: Ragged per-row targets; row 3 starts at its target and never moves.
TARGETS = np.array([900, 2400, 1500, 0])

#: The wide case's weight tables, one per row in turn (k = 2, 3, 4, 5).
WIDE_TABLES = (
    [1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 4.0],
    [1.0, 2.0, 3.0, 4.0, 5.0],
)
WIDE_ROWS = 240

#: Ragged targets for the wide case: rows arrive at many different
#: iterations, so the working set compacts hundreds of times.
WIDE_TARGETS = 100 + (np.arange(WIDE_ROWS) * 37) % 1900


def hetero_wide() -> HeterogeneousAggregateBatch:
    """240 rows over four weight tables with ragged populations."""
    tables = [WIDE_TABLES[r % len(WIDE_TABLES)] for r in range(WIDE_ROWS)]
    dark = [
        [4 + (7 * r + 5 * i) % 29 for i in range(len(table))]
        for r, table in enumerate(tables)
    ]
    light = [
        [(3 * r + i) % 4 for i in range(len(table))]
        for r, table in enumerate(tables)
    ]
    return HeterogeneousAggregateBatch(tables, dark, light, rng=31)


DIGESTS = {
    "batched_whole":
        "d07259679991e8ad743aa1f0d66a6d9bacd575847bac5b459dd290711947a448",
    "batched_absorbed":
        "bb4a69eeecf757997e822026cb6963680a6cd6d00bb0fccf1c0aea8b420258b5",
    "batched_add_colour":
        "a6176a393c9c3ac36855ef8dfc3d5f4476dbf28129708a31095a12b78231d859",
    "hetero_ragged":
        "af8aa65d4684db145569863714000f322353ca4ffd0a4e055151c0004e46064b",
    "hetero_lighten_rows":
        "4f44d1f8beb92305bd75a78e58eb279aa215779775c131a98a553faa500321eb",
    "hetero_add_colour":
        "2d692246e1fc3c40dc187e218f256fe22dbb4f456cf7a9c655b62c5096ae1f7d",
    "hetero_wide":
        "fe110e79269a0ab9436b8bd6b15c3254e294d9ebfac6dc4467376fe434ebd889",
}


class TestBatchedDigests:
    def test_whole_batch(self):
        engine = batched()
        engine.run(2500)
        assert digest(engine) == DIGESTS["batched_whole"]

    def test_split_carries_pending_arrivals(self):
        """``run(a); run(b)`` reproduces ``run(a + b)`` bit for bit,
        with arrivals carried across the split."""
        engine = batched()
        engine.run(700)
        assert (engine.snapshot()["pending"] >= 0).any()
        engine.run(1000)
        engine.run(800)
        assert digest(engine) == DIGESTS["batched_whole"]

    def test_absorbed_rows(self):
        """No lightening: row 0 starts absorbed (all dark), the others
        absorb once their light agents have all adopted."""
        dark = np.array([[30, 30, 30], [30, 20, 10], [20, 30, 10]])
        light = np.array([[0, 0, 0], [0, 10, 20], [10, 0, 20]])
        engine = BatchedAggregateSimulation(
            WeightTable([1.0, 2.0, 3.0]), dark, light,
            rng=5, lighten_probabilities=[0.0, 0.0, 0.0],
        )
        engine.run(4000)
        assert (engine.light_counts() == 0).all()
        assert digest(engine) == DIGESTS["batched_absorbed"]

    def test_add_colour_widens_mid_run(self):
        engine = batched()
        engine.run(900)
        engine.add_colour(2.0, 3)
        engine.run(1100)
        assert engine.k == 4
        assert digest(engine) == DIGESTS["batched_add_colour"]


class TestHeteroDigests:
    def test_ragged_targets(self):
        engine = hetero()
        engine.run_to(TARGETS // 2)
        engine.run_to(TARGETS)
        assert engine.times().tolist() == TARGETS.tolist()
        assert digest(engine) == DIGESTS["hetero_ragged"]

    def test_per_row_lighten_tables(self):
        """Row 3 is all dark with zero lightening: absorbed from the
        start while the others run on."""
        lighten = [[0.5, 0.25], [1.0, 0.5, 0.0], [0.2, 0.4, 0.6, 0.8],
                   [0.0, 0.0, 0.0]]
        engine = hetero(lighten_rows=lighten)
        engine.run_to(np.array([900, 2400, 1500, 1200]))
        assert digest(engine) == DIGESTS["hetero_lighten_rows"]

    def test_add_colour_widens_mid_run(self):
        engine = hetero()
        engine.run(600)
        engine.add_colour(2.0, 4, rows=[0, 2])
        assert engine.k_max == 5
        engine.run(np.array([500, 900, 700, 300]))
        assert digest(engine) == DIGESTS["hetero_add_colour"]

    def test_wide_batch_retiring_rows(self):
        """Hundreds of rows retiring at many different iterations, run
        in two halves, so the loop compacts its working set often."""
        engine = hetero_wide()
        engine.run_to(WIDE_TARGETS // 2)
        engine.run_to(WIDE_TARGETS)
        assert engine.times().tolist() == WIDE_TARGETS.tolist()
        assert digest(engine) == DIGESTS["hetero_wide"]


class TestWorkingLayout:
    def test_retire_keeps_the_blocks_c_contiguous(self):
        """Compacting the working set keeps every block row-contiguous,
        so the flat view the ±1 scatters write through is the count
        block itself, not a copy."""
        engine = hetero()
        k = engine.k_max
        rows = _ActiveRows.gather(
            np.arange(engine.rows), engine._times, TARGETS + 1,
            engine._dark, engine._light, engine._lighten, engine._denom,
            k, engine._streams,
        )
        keep = np.array([True, False, True, True])
        rest = rows.retire(keep, engine._times, engine._dark, engine._light)
        assert rest.act.tolist() == [0, 2, 3]
        for block in (rest.counts, rest.mass, rest.lighten):
            assert block.flags.c_contiguous
        assert np.shares_memory(rest.flat, rest.counts)
        assert rest.counts.tolist() == rows.counts[:, keep].tolist()
        assert rest.pos.tolist() == rows.pos[keep].tolist()
        assert rest.lanes.tolist() == rows.lanes[:, keep].tolist()
        assert rest.lanes.flags.c_contiguous
        assert np.shares_memory(rest.start, rest.lanes)
