"""Property tests for the recorder layer.

The recorder's contract with the segmented runner: monotone snapshot
times and an unconditional horizon snapshot, with or without
interventions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.interventions import AddAgents
from repro.adversary.schedule import InterventionSchedule, run_with_interventions
from repro.engine.aggregate import AggregateSimulation
from repro.engine.rng import make_rng
from repro.core.weights import WeightTable
from repro.experiments.recorder import CountRecorder

WEIGHTS = [1.0, 2.0, 4.0]
DARK = [25, 15, 5]


def build_engine(seed):
    return AggregateSimulation(
        WeightTable(WEIGHTS), dark_counts=DARK, rng=make_rng(seed)
    )


class TestRecorderInvariants:
    @given(
        seed=st.integers(0, 2**32 - 1),
        interval=st.integers(1, 90),
        total=st.integers(0, 400),
    )
    @settings(max_examples=30, deadline=None)
    def test_times_strictly_increase_and_horizon_present(
        self, seed, interval, total
    ):
        engine = build_engine(seed)
        recorder = CountRecorder(interval)
        run_with_interventions(engine, total, recorder=recorder)
        times = recorder.times()
        assert times[0] == 0
        assert np.all(np.diff(times) > 0)
        # The final snapshot is always the horizon, interval or not.
        assert times[-1] == total == engine.time

    @given(seed=st.integers(0, 2**32 - 1), interval=st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_interventions_do_not_break_monotonicity(self, seed, interval):
        engine = build_engine(seed)
        recorder = CountRecorder(interval)
        schedule = InterventionSchedule(
            [(40, AddAgents(0, 5, dark=True)), (120, AddAgents(1, 3, dark=False))]
        )
        run_with_interventions(engine, 200, schedule, recorder=recorder)
        times = recorder.times()
        assert np.all(np.diff(times) > 0)
        assert times[-1] == 200
        # Row widths stay consistent across the whole record.
        assert recorder.colour_counts().shape[0] == len(times)
