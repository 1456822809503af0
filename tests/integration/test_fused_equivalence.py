"""Integration tests: fused mega-batch vs per-cell equivalence.

The heterogeneous engine shares one draw stream across all rows, so —
exactly like the batched-vs-scalar precedent — its results must match
the per-cell engines *in distribution*.  With fixed seeds we run each
grid cell's replications fused (one engine for the whole sweep) and
per cell (one batched engine per cell), then compare the per-cell
final-count distributions with two-sample Kolmogorov-Smirnov tests.
The same is checked end-to-end through ``execute(..., fused=True)``
against the per-shard pipeline path, on E17's sweep, whose rows of
different k share one engine.  E3, E4 and E9 have no fused
implementation, so their fused runs are checked to be the per-shard
runs, value for value (and, for E9, cache key for cache key).
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.weights import WeightTable
from repro.engine.batched import BatchedAggregateSimulation
from repro.engine.hetero import HeterogeneousAggregateBatch
from repro.experiments.fusion import spec_fused_sweep
from repro.experiments.pipeline import execute, plan

REPLICATIONS = 64
P_FLOOR = 1e-3  # identical laws: p-values are uniform, so this is lax

CELLS = (
    # (weight vector, dark start) — different k, skew and n per cell
    ((1.0, 1.0, 1.0), (20, 20, 20)),
    ((1.0, 2.0, 3.0), (30, 15, 15)),
    ((1.0, 4.0), (70, 20)),
)
STEPS = (1500, 2000, 2500)  # per-cell horizons, deliberately unequal


def fused_finals() -> list[np.ndarray]:
    """All cells × replications in ONE heterogeneous engine."""
    tables = []
    darks = []
    steps = []
    for (vector, dark0), horizon in zip(CELLS, STEPS):
        for _ in range(REPLICATIONS):
            tables.append(WeightTable(vector))
            darks.append(list(dark0))
            steps.append(horizon)
    engine = HeterogeneousAggregateBatch(tables, darks, rng=811)
    engine.run(np.asarray(steps))
    counts = engine.colour_counts()
    out = []
    for cell in range(len(CELLS)):
        rows = counts[cell * REPLICATIONS : (cell + 1) * REPLICATIONS]
        out.append(rows[:, : len(CELLS[cell][0])])
    return out


def per_cell_finals() -> list[np.ndarray]:
    """The per-cell batched loop: one (R, 2k) engine per cell."""
    out = []
    for index, ((vector, dark0), horizon) in enumerate(zip(CELLS, STEPS)):
        engine = BatchedAggregateSimulation(
            WeightTable(vector), list(dark0),
            replications=REPLICATIONS, rng=900 + index,
        )
        engine.run(horizon)
        out.append(engine.colour_counts())
    return out


@pytest.fixture(scope="module")
def finals():
    return fused_finals(), per_cell_finals()


class TestHeteroPerCellEquivalence:
    def test_population_and_padding(self, finals):
        fused, per_cell = finals
        for cell, (vector, dark0) in enumerate(CELLS):
            assert fused[cell].shape == (REPLICATIONS, len(vector))
            assert (fused[cell].sum(axis=1) == sum(dark0)).all()
            assert (per_cell[cell].sum(axis=1) == sum(dark0)).all()

    def test_ks_per_cell_per_colour(self, finals):
        fused, per_cell = finals
        for cell, (vector, _) in enumerate(CELLS):
            for colour in range(len(vector)):
                result = stats.ks_2samp(
                    fused[cell][:, colour], per_cell[cell][:, colour]
                )
                assert result.pvalue > P_FLOOR, (
                    f"cell {cell} colour {colour}: "
                    f"KS p={result.pvalue:.2e}"
                )

    def test_per_step_mode_matches_event_mode(self):
        tables = [WeightTable(CELLS[1][0])] * REPLICATIONS
        darks = [list(CELLS[1][1])] * REPLICATIONS
        stepped = HeterogeneousAggregateBatch(tables, darks, rng=31)
        stepped.run_per_step(1200)
        event = HeterogeneousAggregateBatch(tables, darks, rng=32)
        event.run(1200)
        for colour in range(3):
            result = stats.ks_2samp(
                stepped.colour_counts()[:, colour],
                event.colour_counts()[:, colour],
            )
            assert result.pvalue > P_FLOOR, f"colour {colour}"


class TestFusedPipelineEquivalence:
    """End to end: execute(spec, fused=True) vs the per-shard path."""

    @pytest.fixture(scope="class")
    def results(self):
        spec = spec_fused_sweep(
            weight_vectors=((1.0, 1.0), (1.0, 2.0, 3.0)),
            ns=(60, 90),
            rounds=25,
            replications=48,
            base_seed=2024,
        )
        return execute(spec, fused=True), execute(spec)

    def test_every_shard_fused(self, results):
        from repro.experiments.fusion import fuse

        fused_plan = fuse(plan(results[0].spec))
        assert fused_plan.fallback_shards == 0
        assert fused_plan.fused_shards == 4 * 48

    def test_ks_per_cell(self, results):
        fused, serial = results
        for (params, fvals), (_, svals) in zip(
            fused.by_cell(), serial.by_cell()
        ):
            k = len(params["vector"])
            fcounts = np.array([v["counts"] for v in fvals])
            scounts = np.array([v["counts"] for v in svals])
            assert (fcounts.sum(axis=1) == params["n"]).all()
            assert (scounts.sum(axis=1) == params["n"]).all()
            for colour in range(k):
                result = stats.ks_2samp(
                    fcounts[:, colour], scounts[:, colour]
                )
                assert result.pvalue > P_FLOOR, (
                    f"cell {params}: colour {colour} "
                    f"KS p={result.pvalue:.2e}"
                )

    def test_fused_is_reproducible(self, results):
        spec = results[0].spec
        again = execute(spec, fused=True)
        assert again.values() == results[0].values()


class TestFusedPhaseMeasurements:
    """Only E17's measurement has a fused implementation: ``fused=True``
    runs the phase measurements (E3, E4) and E9 on the per-shard path,
    so a fused run computes a plain run's values."""

    @pytest.mark.parametrize(
        "builder, kwargs",
        [
            ("spec_potentials", {"n": 128, "settle_factor": 2.0}),
            ("spec_equilibrium",
             {"n": 128, "settle_factor": 2.0, "window_samples": 8}),
        ],
        ids=["e3", "e4"],
    )
    def test_phase_measurement_fused_is_the_per_shard_run(
        self, builder, kwargs
    ):
        from repro.experiments import phases
        from repro.experiments.fusion import fuse

        spec = getattr(phases, builder)(**kwargs)
        assert fuse(plan(spec)).fused_shards == 0
        assert execute(spec, fused=True).values() == execute(spec).values()

    def test_e9_fused_is_the_per_shard_run(self, tmp_path):
        """E9 has no fused implementation: ``fused=True`` runs every
        shard on the per-shard path, so it computes a plain run's
        values and caches them under the plain run's keys."""
        from repro.experiments.cache import ShardCache
        from repro.experiments.variants import spec_derandomised

        spec = spec_derandomised(
            n=96, weight_vector=(1, 2, 3), rounds=250, seeds=3,
        )
        cache = ShardCache(tmp_path / "cache")
        fused = execute(spec, fused=True, cache=cache)
        plain = execute(spec, cache=cache)
        assert fused.cache_stats["misses"] == 6
        assert plain.cache_stats["hits"] == 6
        assert plain.cache_stats["misses"] == 0
        assert fused.values() == execute(spec).values()
        assert fused.table().render() == plain.table().render()
