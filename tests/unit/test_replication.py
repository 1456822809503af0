"""Unit tests for the replication helpers."""

import numpy as np
import pytest

from repro.core.ablations import EagerRecolouring, UnweightedLightening
from repro.core.derandomised import DerandomisedDiversification
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.rng import make_rng, spawn
from repro.experiments import runner as runner_module
from repro.experiments.replication import (
    Summary,
    is_aggregate_compatible,
    replicate,
    replicate_colour_counts,
    summarise,
)


class TestReplicate:
    def test_runs_requested_count(self):
        values = replicate(lambda rng: rng.random(), 7, base_seed=1)
        assert len(values) == 7

    def test_independent_streams(self):
        values = replicate(lambda rng: rng.random(), 5, base_seed=2)
        assert len(set(values)) == 5

    def test_deterministic_given_seed(self):
        a = replicate(lambda rng: rng.random(), 4, base_seed=3)
        b = replicate(lambda rng: rng.random(), 4, base_seed=3)
        assert a == b

    def test_none_skipped(self):
        values = replicate(
            lambda rng: None if rng.random() < 0.5 else 1.0,
            20, base_seed=4,
        )
        assert all(v == 1.0 for v in values)
        assert 0 < len(values) < 20

    def test_none_raises_when_not_skipping(self):
        with pytest.raises(ValueError):
            replicate(
                lambda rng: None, 3, base_seed=5, skip_none=False
            )

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda rng: 1.0, 0)


class TestSummarise:
    def test_basic_statistics(self):
        summary = summarise([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
        assert summary.count == 4
        assert summary.ci_low < summary.mean < summary.ci_high

    def test_interval_contains_truth_usually(self):
        """95% CI coverage spot-check: across 200 replications of a
        known-mean sample, the interval should cover ~95%."""
        rng = np.random.default_rng(0)
        covered = 0
        for _ in range(200):
            sample = rng.normal(10.0, 2.0, size=12)
            summary = summarise(sample)
            if summary.ci_low <= 10.0 <= summary.ci_high:
                covered += 1
        assert covered >= 175  # ≥ 87.5%, generous for 200 trials

    def test_single_value(self):
        summary = summarise([5.0])
        assert summary.mean == 5.0
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarise([])

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            summarise([1.0, 2.0], confidence=1.5)

    def test_as_row(self):
        summary = Summary(1.0, 0.5, 0.25, 0.5, 1.5, 4)
        assert summary.as_row() == [1.0, 0.5, 0.5, 1.5]


class TestAggregateCompatibility:
    def test_default_protocol_is_compatible(self):
        assert is_aggregate_compatible(None)

    def test_diversification_is_compatible(self):
        weights = WeightTable([1.0, 2.0])
        assert is_aggregate_compatible(Diversification(weights))

    def test_unweighted_lightening_ablation_is_compatible(self):
        weights = WeightTable([1.0, 2.0])
        assert is_aggregate_compatible(UnweightedLightening(weights))

    def test_agent_level_protocols_fall_back(self):
        weights = WeightTable([1.0, 2.0])
        assert not is_aggregate_compatible(EagerRecolouring(weights))
        assert not is_aggregate_compatible(
            DerandomisedDiversification(WeightTable([1.0, 2.0]))
        )

    def test_topology_forces_fallback(self):
        assert not is_aggregate_compatible(None, topology=object())

    def test_schedule_stays_on_batched_path(self):
        """Interventions apply batch-wide now; a schedule no longer
        forces the scalar replication loop."""
        assert is_aggregate_compatible(None, schedule=object())


class _SpyBatchedEngine:
    """Wraps the real batched engine and records instantiation."""

    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1
        from repro.engine.batched import BatchedAggregateSimulation

        self._engine = BatchedAggregateSimulation(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@pytest.fixture
def spy_batched(monkeypatch):
    _SpyBatchedEngine.instances = 0
    monkeypatch.setattr(
        runner_module, "BatchedAggregateSimulation", _SpyBatchedEngine
    )
    return _SpyBatchedEngine


class TestReplicateColourCountsRouting:
    def test_aggregate_protocol_takes_batched_path(self, spy_batched):
        weights = WeightTable([1.0, 2.0])
        counts = replicate_colour_counts(
            weights, 30, 500, replications=6, base_seed=0,
            protocol=Diversification(weights),
        )
        assert spy_batched.instances == 1
        assert counts.shape == (6, 2)
        assert (counts.sum(axis=1) == 30).all()

    def test_agent_level_protocol_falls_back(self, spy_batched):
        weights = WeightTable([1.0, 2.0])
        counts = replicate_colour_counts(
            weights, 20, 300, replications=3, base_seed=1,
            protocol=EagerRecolouring(weights),
        )
        assert spy_batched.instances == 0
        assert counts.shape == (3, 2)
        assert (counts.sum(axis=1) == 20).all()

    def test_topology_falls_back_to_agent_engine(self, spy_batched):
        from repro.topology.graphs import CycleGraph

        weights = WeightTable([1.0, 2.0])
        counts = replicate_colour_counts(
            weights, 20, 300, replications=3, base_seed=2,
            topology=CycleGraph(20),
        )
        assert spy_batched.instances == 0
        assert counts.shape == (3, 2)
        assert (counts.sum(axis=1) == 20).all()

    def test_schedule_fuses_batched_and_pads_new_colours(
        self, spy_batched
    ):
        from repro.adversary.interventions import AddColour
        from repro.adversary.schedule import InterventionSchedule

        weights = WeightTable([1.0, 2.0])
        schedule = InterventionSchedule(
            [(100, AddColour(weight=3.0, count=10))]
        )
        counts = replicate_colour_counts(
            weights, 30, 400, replications=3, base_seed=4,
            schedule=schedule,
        )
        assert spy_batched.instances == 1  # fused despite the schedule
        assert counts.shape == (3, 3)  # padded to the new colour set
        assert (counts.sum(axis=1) == 40).all()  # 30 + 10 injected
        assert weights.k == 2  # caller's table untouched

    def test_schedule_scalar_fallback_copies_protocol_per_run(self):
        """Regression: a *passed* weighted protocol used to share one
        weight table across the scalar fallback's replications, so an
        AddColour schedule compounded colours (k=3, then 4, ...)."""
        from repro.adversary.interventions import AddColour
        from repro.adversary.schedule import InterventionSchedule

        weights = WeightTable([1.0, 2.0])
        protocol = EagerRecolouring(weights)
        schedule = InterventionSchedule(
            [(100, AddColour(weight=3.0, count=5))]
        )
        counts = replicate_colour_counts(
            weights, 30, 400, replications=3, base_seed=4,
            protocol=protocol, schedule=schedule,
        )
        # One added colour per replication — not one, two, three.
        assert counts.shape == (3, 3)
        assert (counts.sum(axis=1) == 35).all()
        assert protocol.weights.k == 2  # caller's protocol untouched
        assert weights.k == 2

    def test_schedule_fused_array_copies_protocol(self):
        """On the array engine each replication under a schedule
        mutates its own copy of the passed protocol, never the
        caller's instance."""
        from repro.adversary.interventions import AddColour
        from repro.adversary.schedule import InterventionSchedule

        weights = WeightTable([1.0, 2.0])
        protocol = Diversification(weights)
        schedule = InterventionSchedule(
            [(100, AddColour(weight=3.0, count=5))]
        )
        counts = replicate_colour_counts(
            weights, 30, 400, replications=4, base_seed=4,
            protocol=protocol, schedule=schedule, engine="array",
        )
        assert counts.shape == (4, 3)
        assert (counts.sum(axis=1) == 35).all()
        assert protocol.weights.k == 2

    def test_deterministic_given_seed(self):
        weights = WeightTable([1.0, 2.0, 3.0])
        first = replicate_colour_counts(
            weights, 60, 1000, replications=8, base_seed=9
        )
        second = replicate_colour_counts(
            weights, 60, 1000, replications=8, base_seed=9
        )
        np.testing.assert_array_equal(first, second)

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            replicate_colour_counts(
                WeightTable([1.0]), 10, 10, replications=0
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            replicate_colour_counts(
                WeightTable([1.0, 2.0]), 20, 100, replications=2,
                engine="bogus",
            )

    def test_forced_agent_engines_skip_aggregate_path(self, spy_batched):
        weights = WeightTable([1.0, 2.0])
        for engine in ("scalar", "array"):
            counts = replicate_colour_counts(
                weights, 30, 400, replications=4, base_seed=0,
                engine=engine,
            )
            assert counts.shape == (4, 2)
            assert (counts.sum(axis=1) == 30).all()
        assert spy_batched.instances == 0

    def test_lighten_override_requires_aggregate_path(self):
        """The lighten_probabilities override is only consumed by the
        aggregate engines; silently dropping it on the agent-level
        paths would simulate the wrong dynamics."""
        weights = WeightTable([1.0, 2.0])
        with pytest.raises(ValueError, match="lighten_probabilities"):
            replicate_colour_counts(
                weights, 30, 400, replications=2,
                lighten_probabilities=[1.0, 1.0], engine="array",
            )
        from repro.topology.graphs import CycleGraph

        with pytest.raises(ValueError, match="lighten_probabilities"):
            replicate_colour_counts(
                weights, 20, 200, replications=2,
                lighten_probabilities=[1.0, 1.0],
                topology=CycleGraph(20),
            )


class TestAgentLevelReplications:
    """Agent-level replications are an explicit ``run_agent`` loop over
    ``spawn(make_rng(base_seed), R)``, bit for bit."""

    WEIGHTS = (1.0, 2.0, 3.0)
    N = 36
    STEPS = 1800
    REPLICATIONS = 4

    @pytest.mark.parametrize(
        "protocol, topology, engine, start",
        [
            (None, None, "array", "random"),
            (None, None, "scalar", "worst"),
            ("voter", None, "auto", "worst"),
            (None, "cycle", "auto", "worst"),
        ],
        ids=["array", "scalar", "voter-auto", "cycle-auto"],
    )
    def test_equals_an_explicit_run_agent_loop(
        self, protocol, topology, engine, start
    ):
        from repro.baselines.voter import VoterModel
        from repro.experiments.runner import run_agent
        from repro.topology.graphs import CycleGraph

        weights = WeightTable(self.WEIGHTS)

        def make_protocol():
            if protocol == "voter":
                return VoterModel()
            return Diversification(weights.copy())

        graph = CycleGraph(self.N) if topology == "cycle" else None
        counts = replicate_colour_counts(
            weights, self.N, self.STEPS,
            replications=self.REPLICATIONS,
            protocol=make_protocol() if protocol else None,
            topology=graph, start=start, base_seed=17, engine=engine,
        )
        expected = [
            run_agent(
                make_protocol(), weights, self.N, self.STEPS,
                start=start, seed=child, record_interval=self.STEPS,
                topology=graph, engine=engine,
            ).final_colour_counts
            for child in spawn(make_rng(17), self.REPLICATIONS)
        ]
        np.testing.assert_array_equal(counts, np.asarray(expected))
