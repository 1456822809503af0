"""Integration smoke tests: every experiment in the suite runs with
small parameters and produces a sane table."""

from repro.experiments import (
    experiment_ablations,
    experiment_adversary,
    experiment_baselines,
    experiment_convergence_scaling,
    experiment_derandomised,
    experiment_derandomised_scaling,
    experiment_diversity_error,
    experiment_engines,
    experiment_equilibrium,
    experiment_fairness,
    experiment_markov_chain,
    experiment_phase1,
    experiment_potentials,
    experiment_sustainability,
    experiment_topology,
)
from repro.experiments.table import ExperimentTable


def check(table: ExperimentTable, expected_id: str):
    assert isinstance(table, ExperimentTable)
    assert table.experiment == expected_id
    assert table.rows, "experiment produced no rows"
    rendered = table.render()
    assert expected_id in rendered
    return table


class TestSuiteSmoke:
    def test_e1(self):
        table = experiment_convergence_scaling(
            ns=(64, 128), weight_vectors=((1.0, 1.0),), seeds=2
        )
        check(table, "E1")
        # Every row reports a hitting time.
        assert all(row[-1] >= 1 for row in table.rows)

    def test_e2(self):
        table = experiment_diversity_error(
            ns=(64, 128), weight_vector=(1.0, 2.0), seeds=2
        )
        check(table, "E2")

    def test_e3(self):
        table = experiment_potentials(n=192, settle_factor=6.0)
        check(table, "E3")
        by_name = {row[0]: row for row in table.rows}
        assert set(by_name) == {"phi", "psi", "sigma_sq"}
        # phi drops by a large factor from the worst-case start
        # (columns: name, initial, peak, final, bound, hit, stays).
        assert by_name["phi"][1] > by_name["phi"][3]

    def test_e3b(self):
        table = experiment_phase1(ns=(96, 128), seeds=2)
        check(table, "E3b")
        assert all(row[-1] == "2/2" for row in table.rows)

    def test_e4(self):
        table = experiment_equilibrium(
            n=384, settle_factor=5.0, window_samples=32
        )
        check(table, "E4")
        assert all(row[-1] for row in table.rows), "equilibrium off target"

    def test_e5(self):
        table = experiment_fairness(
            n=64, weight_vector=(1.0, 2.0), horizon_rounds=(100, 400)
        )
        check(table, "E5")

    def test_e6(self):
        table = experiment_sustainability(
            n=48, steps_per_agent=150, seeds=3
        )
        check(table, "E6")
        by_name = {row[0]: row for row in table.rows}
        assert by_name["diversification"][-1] is True

    def test_e7(self):
        table = experiment_adversary(n=256, settle_factor=4.0)
        check(table, "E7")

    def test_e8(self):
        table = experiment_markov_chain(n=64, sim_steps=30_000)
        check(table, "E8")
        assert all(row[-1] for row in table.rows)

    def test_e9(self):
        table = experiment_derandomised(n=128, rounds=600, seeds=1)
        check(table, "E9")

    def test_e9b(self):
        table = experiment_derandomised_scaling(
            ns=(96, 128), seeds=1, settle_rounds=400, window_samples=16
        )
        check(table, "E9b")

    def test_e10(self):
        table = experiment_baselines(n=64, rounds=1200)
        check(table, "E10")
        by_name = {row[0]: row for row in table.rows}
        assert by_name["diversification"][-2] is True  # sustainable

    def test_e10b(self):
        from repro.experiments import experiment_epidemic

        table = experiment_epidemic(n=80, seeds=2, steps_per_agent=400)
        check(table, "E10b")
        # Strongly super-critical epidemics survive.
        assert table.rows[-1][2] == "2/2"

    def test_e11(self):
        table = experiment_topology(n=64, rounds=800)
        check(table, "E11")
        assert len(table.rows) == 4

    def test_e12(self):
        table = experiment_engines(
            n=48, rounds=60, seeds=8, throughput_steps=20_000
        )
        check(table, "E12")

    def test_ablations(self):
        table = experiment_ablations(n=128, rounds=600)
        check(table, "ABL")
        by_name = {row[0]: row for row in table.rows}
        assert by_name["full protocol"][-1] == "weighted"
