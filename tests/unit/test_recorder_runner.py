"""Unit tests for the recorder, runner helpers, report and table."""

import numpy as np
import pytest

from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.experiments.recorder import CountRecorder, _pad_stack
from repro.experiments.report import format_series, format_table, format_value
from repro.adversary import (
    AddAgents,
    AddColour,
    InterventionSchedule,
    RecolourColour,
)
from repro.experiments.runner import (
    array_schedule_supported,
    initial_count_rows,
    initial_counts,
    run_agent,
    run_aggregate,
    run_diversification_agent,
)
from repro.topology import CompleteGraph, CycleGraph
from repro.experiments.table import ExperimentTable


class FakeEngine:
    def __init__(self):
        self.time = 0
        self._counts = np.array([3, 5])

    def colour_counts(self):
        return self._counts

    def dark_counts(self):
        return self._counts

    def light_counts(self):
        return np.zeros(2, dtype=np.int64)


class TestCountRecorder:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            CountRecorder(0)

    def test_record_and_arrays(self):
        recorder = CountRecorder(10)
        engine = FakeEngine()
        recorder.record_from(engine)
        engine.time = 10
        recorder.record_from(engine)
        assert len(recorder) == 2
        np.testing.assert_array_equal(recorder.times(), [0, 10])
        assert recorder.colour_counts().shape == (2, 2)

    def test_due_logic(self):
        recorder = CountRecorder(10)
        engine = FakeEngine()
        assert recorder.is_due(0)  # nothing recorded yet
        recorder.record_from(engine)
        assert not recorder.is_due(5)
        assert recorder.is_due(10)
        assert recorder.next_time_after(0) == 10
        assert recorder.next_time_after(15) == 25

    def test_pad_stack_ragged(self):
        rows = [np.array([1, 2]), np.array([1, 2, 3])]
        out = _pad_stack(rows)
        np.testing.assert_array_equal(out, [[1, 2, 0], [1, 2, 3]])

    def test_pad_stack_empty(self):
        assert _pad_stack([]).shape == (0, 0)


class TestInitialCounts:
    def test_dispatch(self, skewed_weights):
        for start in ("worst", "uniform", "proportional", "random"):
            counts = initial_counts(start, 60, skewed_weights, rng=0)
            assert counts.sum() == 60

    def test_unknown_start(self, skewed_weights):
        with pytest.raises(ValueError):
            initial_counts("bogus", 60, skewed_weights)

    @pytest.mark.parametrize("start", ["worst", "uniform", "proportional"])
    def test_rows_of_a_deterministic_start_are_identical(
        self, skewed_weights, start
    ):
        rows = initial_count_rows(
            start, 60, skewed_weights, np.random.default_rng(0), 4
        )
        assert rows.shape == (4, 3)
        expected = initial_counts(start, 60, skewed_weights, rng=0)
        assert (rows == expected).all()

    def test_random_start_is_resampled_per_row(self, skewed_weights):
        """Each replication draws its own random start, as the scalar
        per-replication loop does, from the one generator in turn."""
        rows = initial_count_rows(
            "random", 60, skewed_weights, np.random.default_rng(4), 8
        )
        assert (rows.sum(axis=1) == 60).all()
        assert len({tuple(row) for row in rows}) > 1
        rng = np.random.default_rng(4)
        looped = [
            initial_counts("random", 60, skewed_weights, rng)
            for _ in range(8)
        ]
        assert np.array_equal(rows, np.stack(looped))


def _schedule(*interventions):
    return InterventionSchedule(
        (10 * (index + 1), intervention)
        for index, intervention in enumerate(interventions)
    )


class TestArrayScheduleSupported:
    """The array engine can grow the complete graph, but a CSR
    adjacency cannot gain nodes: only recolourings run on it."""

    @pytest.mark.parametrize(
        "topology, schedule, supported",
        [
            (None, _schedule(AddAgents(0, 5)), True),
            (CompleteGraph(20), _schedule(AddColour(2.0, 3)), True),
            (CycleGraph(20), None, True),
            (CycleGraph(20), _schedule(RecolourColour(0, 1)), True),
            (CycleGraph(20),
             _schedule(RecolourColour(0, 1), AddAgents(1, 2)), False),
            (CycleGraph(20), _schedule(AddColour(2.0, 3)), False),
        ],
        ids=[
            "complete-default", "complete-explicit", "cycle-no-schedule",
            "cycle-recolour", "cycle-add-agents", "cycle-add-colour",
        ],
    )
    def test_truth_table(self, topology, schedule, supported):
        assert array_schedule_supported(schedule, topology) is supported


class TestRunHelpers:
    def test_run_aggregate_record(self, skewed_weights):
        record = run_aggregate(
            skewed_weights, n=60, steps=5000, seed=0, record_interval=500
        )
        assert record.n == 60
        assert record.times[-1] == 5000 or record.times[-1] >= 4500
        assert record.colour_counts.shape[1] == 3
        assert (record.colour_counts.sum(axis=1) == 60).all()

    def test_run_aggregate_leaves_caller_weights(self, skewed_weights):
        run_aggregate(skewed_weights, n=30, steps=100, seed=0)
        assert skewed_weights.k == 3  # caller's table untouched

    def test_run_agent_record(self, skewed_weights):
        weights = skewed_weights.copy()
        record = run_agent(
            Diversification(weights), weights, n=30, steps=2000,
            seed=1, record_interval=200,
        )
        assert record.colour_counts.shape[1] == 3
        assert record.extras["simulation"].time == 2000

    def test_run_diversification_agent(self, skewed_weights):
        record = run_diversification_agent(
            skewed_weights, n=24, steps=1000, seed=2
        )
        assert record.final_colour_counts.sum() == 24


class TestAgentEngineRouting:
    def test_auto_routes_kernelised_protocol_to_array(self, skewed_weights):
        from repro.engine.array_engine import ArraySimulation

        weights = skewed_weights.copy()
        record = run_agent(
            Diversification(weights), weights, n=30, steps=500, seed=0
        )
        assert isinstance(record.extras["simulation"], ArraySimulation)

    def test_scalar_engine_forced(self, skewed_weights):
        from repro.engine.simulator import Simulation

        weights = skewed_weights.copy()
        record = run_agent(
            Diversification(weights), weights, n=30, steps=500, seed=0,
            engine="scalar",
        )
        assert isinstance(record.extras["simulation"], Simulation)

    def test_auto_falls_back_without_kernel(self, skewed_weights):
        from repro.core.derandomised import DerandomisedDiversification
        from repro.engine.simulator import Simulation

        weights = WeightTable([1.0, 2.0, 3.0])
        record = run_agent(
            DerandomisedDiversification(weights), weights,
            n=30, steps=500, seed=0,
        )
        assert isinstance(record.extras["simulation"], Simulation)

    def test_schedule_routes_to_array_on_complete_graph(
        self, skewed_weights
    ):
        from repro.adversary.interventions import AddAgents
        from repro.adversary.schedule import InterventionSchedule
        from repro.engine.array_engine import ArraySimulation

        weights = skewed_weights.copy()
        schedule = InterventionSchedule([(100, AddAgents(0, 5))])
        record = run_agent(
            Diversification(weights), weights, n=30, steps=500, seed=0,
            schedule=schedule,
        )
        assert isinstance(record.extras["simulation"], ArraySimulation)
        assert record.final_colour_counts.sum() == 35

    def test_growth_schedule_on_topology_falls_back_to_scalar(
        self, skewed_weights
    ):
        from repro.adversary.interventions import RecolourColour
        from repro.adversary.schedule import InterventionSchedule
        from repro.engine.array_engine import ArraySimulation
        from repro.experiments.runner import use_array_engine
        from repro.topology import CycleGraph

        weights = skewed_weights.copy()
        protocol = Diversification(weights)
        # Index-stable recolourings stay on the array engine even on an
        # explicit CSR topology ...
        recolour_only = InterventionSchedule([(50, RecolourColour(0, 1))])
        record = run_agent(
            protocol, weights, n=30, steps=500, seed=0,
            topology=CycleGraph(30), schedule=recolour_only,
        )
        assert isinstance(record.extras["simulation"], ArraySimulation)
        # ... but population growth does not (adjacency cannot grow).
        from repro.adversary.interventions import AddAgents

        growth = InterventionSchedule([(100, AddAgents(0, 5))])
        assert not use_array_engine(
            protocol, topology=CycleGraph(30), schedule=growth
        )

    def test_array_engine_rejects_growth_on_topology(self, skewed_weights):
        from repro.adversary.interventions import AddAgents
        from repro.adversary.schedule import InterventionSchedule
        from repro.topology import CycleGraph

        weights = skewed_weights.copy()
        schedule = InterventionSchedule([(100, AddAgents(0, 5))])
        with pytest.raises(ValueError, match="scalar engine"):
            run_agent(
                Diversification(weights), weights, n=30, steps=500,
                seed=0, schedule=schedule, engine="array",
                topology=CycleGraph(30),
            )

    def test_unknown_engine_rejected(self, skewed_weights):
        with pytest.raises(ValueError, match="unknown engine"):
            run_agent(
                Diversification(skewed_weights), skewed_weights,
                n=30, steps=100, engine="bogus",
            )


class TestReplicationWeightsRegression:
    """Regression: the replication paths must return the *widened*
    weight table when a ColourAddition schedule grows the colour set,
    so ``record.weights.k`` always matches the count matrices — on the
    fused batched engine and on the scalar fallback loop alike."""

    @pytest.mark.parametrize("batched", [True, False])
    def test_widened_table_recorded(self, batched):
        from repro.adversary.interventions import AddColour
        from repro.adversary.schedule import InterventionSchedule

        weights = WeightTable([1.0, 2.0])
        schedule = InterventionSchedule(
            [(200, AddColour(weight=3.0, count=10))]
        )
        batch = run_aggregate(
            weights, n=30, steps=600, seed=0,
            replications=3, schedule=schedule, batched=batched,
        )
        assert batch.batched is batched  # schedules stay on the fused path
        assert batch.final_dark_counts.shape == (3, 3)
        assert batch.weights.k == batch.final_dark_counts.shape[1]
        assert list(batch.weights) == [1.0, 2.0, 3.0]
        assert weights.k == 2  # caller's table untouched
        assert (batch.final_colour_counts.sum(axis=1) == 40).all()

    def test_unwidened_schedule_keeps_original_table(self):
        from repro.adversary.interventions import AddAgents
        from repro.adversary.schedule import InterventionSchedule

        weights = WeightTable([1.0, 2.0])
        schedule = InterventionSchedule([(200, AddAgents(0, 4))])
        batch = run_aggregate(
            weights, n=30, steps=600, seed=0,
            replications=2, schedule=schedule,
        )
        assert batch.weights.k == 2
        assert batch.final_dark_counts.shape == (2, 2)


class TestTerminalSnapshotRegression:
    """Regression: when ``record_interval`` does not divide ``steps``
    the record used to stop up to interval-1 steps short of the
    horizon, so ``final_colour_counts`` was not the requested state."""

    def test_aggregate_records_horizon(self, skewed_weights):
        record = run_aggregate(skewed_weights, 300, 1000, seed=5)
        # default interval = steps // 256 = 3, which does not divide
        # 1000: the old code ended the record at time 999.
        assert record.times[-1] == 1000

    def test_agent_records_horizon(self, skewed_weights):
        weights = skewed_weights.copy()
        record = run_agent(
            Diversification(weights), weights, n=30, steps=1000,
            seed=5, record_interval=300,
        )
        assert record.times[-1] == 1000

    def test_horizon_snapshot_not_duplicated(self, skewed_weights):
        record = run_aggregate(
            skewed_weights, 60, 1000, seed=1, record_interval=250
        )
        np.testing.assert_array_equal(
            record.times, [0, 250, 500, 750, 1000]
        )

    def test_horizon_snapshot_with_schedule(self, skewed_weights):
        from repro.adversary.interventions import AddAgents
        from repro.adversary.schedule import InterventionSchedule

        schedule = InterventionSchedule([(500, AddAgents(0, 7))])
        record = run_aggregate(
            skewed_weights, 60, 1000, seed=1, record_interval=300,
            schedule=schedule,
        )
        assert record.times[-1] == 1000
        assert record.final_colour_counts.sum() == 67


class TestRandomStartSeedingRegression:
    """Regression: ``start="random"`` with an integer seed used to
    build ``default_rng(seed)`` twice — once for the start counts and
    once for the engine — so the dynamics replayed the exact uniforms
    that drew the start configuration."""

    def test_streams_decorrelated(self):
        from repro.experiments.runner import seed_streams

        workload, engine = seed_streams(7)
        reference = np.random.default_rng(7)
        # The engine stream must be neither the workload stream nor
        # the old aliased default_rng(seed) stream.
        w_draws = workload.random(8)
        e_draws = engine.random(8)
        assert not np.allclose(w_draws, e_draws)
        assert not np.allclose(e_draws, np.random.default_rng(7).random(8))
        del reference

    def test_generator_input_passes_through(self):
        from repro.experiments.runner import seed_streams

        rng = np.random.default_rng(3)
        workload, engine = seed_streams(rng)
        assert workload is rng and engine is rng

    def test_run_aggregate_random_start_not_aliased(self, skewed_weights):
        from repro.engine.aggregate import AggregateSimulation

        # Reconstruct the pre-fix trajectory: both the workload and the
        # engine consumed default_rng(seed) from the same state.
        seed, n, steps = 11, 60, 2000
        aliased = np.random.default_rng(seed)
        dark0 = initial_counts("random", n, skewed_weights, aliased)
        engine = AggregateSimulation(
            skewed_weights.copy(), dark_counts=dark0,
            rng=np.random.default_rng(seed),
        )
        engine.run(steps)
        record = run_aggregate(
            skewed_weights, n, steps, start="random", seed=seed,
            record_interval=steps,
        )
        differs_start = not np.array_equal(
            record.colour_counts[0], dark0
        )
        differs_final = not np.array_equal(
            record.final_colour_counts, engine.colour_counts()
        )
        assert differs_start or differs_final

    def test_run_aggregate_random_start_reproducible(self, skewed_weights):
        first = run_aggregate(
            skewed_weights, 60, 1500, start="random", seed=21
        )
        second = run_aggregate(
            skewed_weights, 60, 1500, start="random", seed=21
        )
        np.testing.assert_array_equal(
            first.colour_counts, second.colour_counts
        )


class TestProtocolTableMutationRegression:
    """Regression: ``run_agent`` with an AddColour schedule used to
    widen the caller's protocol's shared weight table in place, so
    reusing one protocol instance across runs compounded colours."""

    def test_run_agent_leaves_caller_protocol(self):
        from repro.adversary.interventions import AddColour
        from repro.adversary.schedule import InterventionSchedule

        table = WeightTable([1.0, 2.0, 3.0])
        protocol = Diversification(table)
        schedule = InterventionSchedule([(100, AddColour(2.0, 5))])
        for expected_runs in range(3):
            record = run_agent(
                protocol, table, n=30, steps=400, seed=expected_runs,
                schedule=schedule,
            )
            # Each run widens its own copy exactly once ...
            assert record.weights.k == 4
            assert record.final_colour_counts.shape[0] == 4
        # ... and the caller's table never grows.
        assert table.k == 3
        assert protocol.weights.k == 3

    def test_run_agent_scalar_engine_leaves_caller_protocol(self):
        from repro.adversary.interventions import AddColour
        from repro.adversary.schedule import InterventionSchedule

        table = WeightTable([1.0, 2.0, 3.0])
        protocol = Diversification(table)
        schedule = InterventionSchedule([(100, AddColour(2.0, 5))])
        record = run_agent(
            protocol, table, n=30, steps=400, seed=0,
            schedule=schedule, engine="scalar",
        )
        assert record.weights.k == 4
        assert table.k == 3


class TestReportFormatting:
    def test_format_value_bool(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(np.bool_(True)) == "yes"
        assert format_value(np.bool_(False)) == "no"

    def test_format_value_float(self):
        assert format_value(0.0) == "0"
        assert "e" in format_value(1.23e9)
        assert format_value(3.14159) == "3.142"

    def test_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_series_renders(self):
        text = format_series("demo", list(range(100)),
                             [float(i % 10) for i in range(100)])
        assert "demo" in text
        assert "*" in text

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], [1.0])

    def test_series_empty(self):
        assert "empty" in format_series("x", [], [])


class TestExperimentTable:
    def test_render_contains_everything(self):
        table = ExperimentTable("E0", "demo", ["x", "y"])
        table.add_row(1, 2.0)
        table.add_note("a note")
        text = table.render()
        assert "[E0] demo" in text
        assert "a note" in text
        assert "1" in text
