"""Unit tests for the exact potential drifts (Lemmas 2.9 / 2.10)."""

import numpy as np
import pytest

from repro.analysis.drift import (
    exact_phi_drift,
    exact_psi_drift,
    verify_phi_contraction,
    verify_psi_contraction,
)
from repro.analysis.potentials import phi, psi
from repro.engine.aggregate import AggregateSimulation
from repro.experiments.workloads import equilibrium_split


class TestExactPhiDrift:
    def test_matches_monte_carlo(self, skewed_weights):
        """The exact drift must match a brute-force Monte Carlo
        estimate of E[φ(t+1)] − φ(t) from a fixed configuration."""
        dark = np.array([40, 30, 20])
        light = np.array([5, 8, 12])
        exact = exact_phi_drift(dark, light, skewed_weights)
        samples = 40_000
        total = 0.0
        base = phi(dark, skewed_weights)
        rng = np.random.default_rng(0)
        for _ in range(samples):
            engine = AggregateSimulation(
                skewed_weights.copy(), dark_counts=dark.tolist(),
                light_counts=light.tolist(),
                rng=rng.integers(0, 2**31),
            )
            engine.step()
            total += phi(engine.dark_counts(), skewed_weights) - base
        estimate = total / samples
        spread = abs(exact) + 0.5
        assert abs(estimate - exact) < 4 * spread / np.sqrt(samples) * 50

    def test_negative_drift_when_unbalanced(self, skewed_weights):
        """Far from balance (large φ) the drift must be negative."""
        dark = np.array([80, 10, 10])
        light = np.array([10, 10, 10])
        assert exact_phi_drift(dark, light, skewed_weights) < 0

    def test_near_zero_at_balance(self, skewed_weights):
        dark, light = equilibrium_split(700, skewed_weights)
        drift = exact_phi_drift(dark, light, skewed_weights)
        # At equilibrium the drift is the small positive noise floor.
        assert abs(drift) < 5.0

    def test_requires_two_agents(self, skewed_weights):
        with pytest.raises(ValueError):
            exact_phi_drift([1, 0, 0], [0, 0, 0], skewed_weights)


class TestExactPsiDrift:
    def test_matches_monte_carlo(self, skewed_weights):
        dark = np.array([40, 30, 20])
        light = np.array([20, 5, 3])
        exact = exact_psi_drift(dark, light, skewed_weights)
        base = psi(light, skewed_weights)
        samples = 40_000
        total = 0.0
        rng = np.random.default_rng(1)
        for _ in range(samples):
            engine = AggregateSimulation(
                skewed_weights.copy(), dark_counts=dark.tolist(),
                light_counts=light.tolist(),
                rng=rng.integers(0, 2**31),
            )
            engine.step()
            total += psi(engine.light_counts(), skewed_weights) - base
        estimate = total / samples
        assert abs(estimate - exact) < 0.5

    def test_negative_drift_when_lights_unbalanced(self, skewed_weights):
        """Unbalanced lights over a balanced dark base: ψ must fall."""
        dark = np.array([100, 200, 300])
        light = np.array([60, 2, 2])
        assert exact_psi_drift(dark, light, skewed_weights) < 0


class TestContractionChecks:
    def test_lemma_2_9_along_trajectory(self, skewed_weights):
        """Lemma 2.9(1) with explicit constants holds along a real
        trajectory inside the stabilised regime."""
        engine = AggregateSimulation(
            skewed_weights.copy(), dark_counts=[200, 200, 200], rng=2
        )
        engine.run(200_000)  # settle into E
        for _ in range(50):
            engine.run(600)
            assert verify_phi_contraction(
                engine.dark_counts(), engine.light_counts(),
                skewed_weights, c1=0.5, c2=10.0,
            )

    def test_lemma_2_10_along_trajectory(self, skewed_weights):
        engine = AggregateSimulation(
            skewed_weights.copy(), dark_counts=[200, 200, 200], rng=3
        )
        engine.run(200_000)
        for _ in range(50):
            engine.run(600)
            assert verify_psi_contraction(
                engine.dark_counts(), engine.light_counts(),
                skewed_weights, c1=0.5, c2=10.0,
            )

    def test_contraction_from_worst_start(self, skewed_weights):
        """φ's drift is strongly contracting at the worst start."""
        dark = np.array([598, 1, 1])
        light = np.array([0, 0, 0])
        value = phi(dark, skewed_weights)
        drift = exact_phi_drift(dark, light, skewed_weights)
        n, w = 600.0, skewed_weights.total
        # Lemma 2.9 scale: |drift| should be ≳ φ/(n w) up to constants.
        assert drift < 0
        assert abs(drift) > 0.05 * value / (n * w)