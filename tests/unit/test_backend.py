"""Unit tests for the array-API backend seam: resolution, aliases, the
``REPRO_BACKEND`` environment variable, dtype tables, host/device
boundary converters, host-drawn RNG blocks, and the engine-loop gate."""

import numpy as np
import pytest

from repro.engine.backend import (
    ENV_VAR,
    HOST,
    Backend,
    DtypeTable,
    available_backends,
    require_engine_loops,
    resolve_backend,
)


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend() is HOST

    def test_explicit_name(self):
        assert resolve_backend("numpy") is HOST

    def test_aliases(self):
        for alias in ("np", "host", "NumPy", " numpy "):
            assert resolve_backend(alias) is HOST

    def test_backend_instance_passes_through(self):
        assert resolve_backend(HOST) is HOST

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_backend() is HOST

    def test_env_var_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "tpu-magic")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend()

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="numpy"):
            resolve_backend("no-such-backend")

    def test_missing_package_raises_runtime_error(self):
        availability = available_backends()
        missing = [
            name for name, present in availability.items() if not present
        ]
        if not missing:
            pytest.skip("every known backend is importable here")
        with pytest.raises(RuntimeError, match="not importable"):
            resolve_backend(missing[0])

    def test_available_backends_covers_all_known(self):
        availability = available_backends()
        assert set(availability) >= {"numpy", "array-api-strict", "cupy"}
        assert availability["numpy"] is True

    def test_strict_alias_resolves_or_gates(self):
        """The strict aliases map to the canonical name whether or not
        the package is installed."""
        try:
            backend = resolve_backend("strict")
        except RuntimeError as error:
            assert "array-api-strict" in str(error)
        else:
            assert backend.name == "array-api-strict"
            assert resolve_backend("array_api_strict") is backend


class TestHostBackend:
    def test_identity(self):
        assert HOST.name == "numpy"
        assert HOST.xp is np
        assert HOST.is_host
        assert HOST.supports_engine_loops

    def test_dtype_table(self):
        assert HOST.dtypes.int64 is np.int64
        assert HOST.dtypes.float64 is np.float64
        assert HOST.dtypes.uint64 is np.uint64
        assert HOST.dtypes.bool_ is np.bool_

    def test_asarray_with_and_without_dtype(self):
        out = HOST.asarray([1, 2, 3], dtype=HOST.dtypes.int64)
        assert out.dtype == np.int64
        assert HOST.asarray([1.5]).dtype == np.float64

    def test_to_numpy_is_a_view_by_default(self):
        source = np.arange(4, dtype=np.int64)
        assert HOST.to_numpy(source) is source

    def test_to_numpy_copy_is_independent(self):
        source = np.arange(4, dtype=np.int64)
        copied = HOST.to_numpy(source, copy=True)
        copied[0] = 99
        assert source[0] == 0

    def test_from_host_is_identity_view(self):
        source = np.arange(4, dtype=np.float64)
        assert HOST.from_host(source) is source

    def test_uniform_block_matches_direct_draw(self):
        """Host-drawn blocks consume the same stream as a direct
        ``rng.random`` call — the seeding-truth contract."""
        direct = np.random.default_rng(7).random((3, 2))
        via_backend = HOST.uniform_block(
            np.random.default_rng(7), (3, 2)
        )
        np.testing.assert_array_equal(direct, via_backend)

    def test_integer_block_dtype_and_range(self):
        block = HOST.integer_block(
            np.random.default_rng(0), 0, 10, (100,)
        )
        assert block.dtype == np.int64
        assert block.min() >= 0 and block.max() < 10
        inclusive = HOST.integer_block(
            np.random.default_rng(0), 0, 1, (50,), endpoint=True
        )
        assert set(np.unique(inclusive)) <= {0, 1}


class TestEngineLoopGate:
    def _kernel_only_backend(self):
        return Backend(
            "kernel-only",
            np,
            DtypeTable(np.int64, np.float64, np.uint64, np.bool_),
            supports_engine_loops=False,
        )

    def test_gated_backend_raises_with_engine_name(self):
        with pytest.raises(ValueError, match="TestEngine"):
            require_engine_loops(self._kernel_only_backend(), "TestEngine")

    def test_error_names_supported_alternatives(self):
        with pytest.raises(ValueError, match="numpy"):
            require_engine_loops(self._kernel_only_backend(), "TestEngine")

    def test_host_passes_through(self):
        assert require_engine_loops(HOST, "TestEngine") is HOST

    def test_engines_reject_gated_backend(self):
        from repro.core.weights import WeightTable
        from repro.engine import (
            ArraySimulation,
            BatchedAggregateSimulation,
            HeterogeneousAggregateBatch,
        )
        from repro.core.diversification import Diversification

        gated = self._kernel_only_backend()
        weights = WeightTable.uniform(2)
        with pytest.raises(ValueError, match="ArraySimulation"):
            ArraySimulation(
                Diversification(weights),
                np.array([0, 1]),
                k=2,
                backend=gated,
            )
        with pytest.raises(ValueError, match="BatchedAggregateSimulation"):
            BatchedAggregateSimulation(
                weights, [5, 5], replications=2, backend=gated
            )
        with pytest.raises(ValueError, match="HeterogeneousAggregateBatch"):
            HeterogeneousAggregateBatch(
                [weights], [[5, 5]], backend=gated
            )


class TestEngineBackendPlumbing:
    def test_engines_expose_resolved_backend(self):
        from repro.core.weights import WeightTable
        from repro.core.diversification import Diversification
        from repro.engine import ArraySimulation, BatchedAggregateSimulation

        weights = WeightTable.uniform(2)
        sim = ArraySimulation(
            Diversification(weights),
            np.array([0, 1, 0, 1]),
            k=2,
            rng=0,
            backend="numpy",
        )
        assert sim.backend is HOST
        batch = BatchedAggregateSimulation(
            weights, [5, 5], replications=2, rng=0
        )
        assert batch.backend is HOST

    def test_numpy_backend_trajectory_matches_default(self):
        """An explicit backend="numpy" is bit-identical to no backend
        argument — the seam itself must be free."""
        from repro.core.weights import WeightTable
        from repro.core.diversification import Diversification
        from repro.engine import ArraySimulation

        weights = WeightTable([1.0, 2.0, 3.0])
        colours = np.arange(12) % 3
        default = ArraySimulation(
            Diversification(weights), colours, k=3, rng=42
        ).run(500)
        explicit = ArraySimulation(
            Diversification(WeightTable([1.0, 2.0, 3.0])),
            colours,
            k=3,
            rng=42,
            backend="numpy",
        ).run(500)
        np.testing.assert_array_equal(
            default.colour_counts(), explicit.colour_counts()
        )
        np.testing.assert_array_equal(
            default.dark_counts(), explicit.dark_counts()
        )
        assert default.changes == explicit.changes
