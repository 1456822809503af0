"""Integration smoke tests: every experiment in the suite runs with
small parameters and produces a sane table."""

from repro.experiments import (
    execute,
    spec_ablations,
    spec_adversary,
    spec_baselines,
    spec_convergence_scaling,
    spec_derandomised,
    spec_derandomised_scaling,
    spec_diversity_error,
    spec_engines,
    spec_epidemic,
    spec_equilibrium,
    spec_fairness,
    spec_markov_chain,
    spec_phase1,
    spec_potentials,
    spec_sustainability,
    spec_topology,
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
        table = execute(spec_convergence_scaling(
            ns=(64, 128), weight_vectors=((1.0, 1.0),), seeds=2
        )).table()
        check(table, "E1")
        # Every row reports a hitting time.
        assert all(row[-1] >= 1 for row in table.rows)

    def test_e2(self):
        table = execute(spec_diversity_error(
            ns=(64, 128), weight_vector=(1.0, 2.0), seeds=2
        )).table()
        check(table, "E2")

    def test_e3(self):
        table = execute(spec_potentials(n=192, settle_factor=6.0)).table()
        check(table, "E3")
        by_name = {row[0]: row for row in table.rows}
        assert set(by_name) == {"phi", "psi", "sigma_sq"}
        # phi drops by a large factor from the worst-case start
        # (columns: name, initial, peak, final, bound, hit, stays).
        assert by_name["phi"][1] > by_name["phi"][3]

    def test_e3b(self):
        table = execute(spec_phase1(ns=(96, 128), seeds=2)).table()
        check(table, "E3b")
        assert all(row[-1] == "2/2" for row in table.rows)

    def test_e4(self):
        table = execute(spec_equilibrium(
            n=384, settle_factor=5.0, window_samples=32
        )).table()
        check(table, "E4")
        assert all(row[-1] for row in table.rows), "equilibrium off target"

    def test_e5(self):
        table = execute(spec_fairness(
            n=64, weight_vector=(1.0, 2.0), horizon_rounds=(100, 400)
        )).table()
        check(table, "E5")

    def test_e6(self):
        table = execute(spec_sustainability(
            n=48, steps_per_agent=150, seeds=3
        )).table()
        check(table, "E6")
        by_name = {row[0]: row for row in table.rows}
        assert by_name["diversification"][-1] is True

    def test_e7(self):
        table = execute(spec_adversary(n=256, settle_factor=4.0)).table()
        check(table, "E7")

    def test_e8(self):
        table = execute(spec_markov_chain(n=64, sim_steps=30_000)).table()
        check(table, "E8")
        assert all(row[-1] for row in table.rows)

    def test_e9(self):
        table = execute(
            spec_derandomised(n=128, rounds=600, seeds=1)
        ).table()
        check(table, "E9")

    def test_e9b(self):
        table = execute(spec_derandomised_scaling(
            ns=(96, 128), seeds=1, settle_rounds=400, window_samples=16
        )).table()
        check(table, "E9b")

    def test_e10(self):
        table = execute(spec_baselines(n=64, rounds=1200)).table()
        check(table, "E10")
        by_name = {row[0]: row for row in table.rows}
        assert by_name["diversification"][-2] is True  # sustainable

    def test_e10b(self):
        table = execute(
            spec_epidemic(n=80, seeds=2, steps_per_agent=400)
        ).table()
        check(table, "E10b")
        # Strongly super-critical epidemics survive.
        assert table.rows[-1][2] == "2/2"

    def test_e11(self):
        table = execute(spec_topology(n=64, rounds=800)).table()
        check(table, "E11")
        assert len(table.rows) == 4

    def test_e12(self):
        table = execute(spec_engines(n=48, rounds=60, seeds=8)).table()
        check(table, "E12")

    def test_ablations(self):
        table = execute(spec_ablations(n=128, rounds=600)).table()
        check(table, "ABL")
        by_name = {row[0]: row for row in table.rows}
        assert by_name["full protocol"][-1] == "weighted"
