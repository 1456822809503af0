"""Initial-configuration generators (workloads).

The paper allows an *arbitrary* initial distribution of colours with
every colour initially dark (``b_u(0) = 1``, Sec 1.2) and at least one
supporter each (the state space Ω requires ``A_i >= 1``).  These
generators produce the standard starting points used across the
experiment suite.
"""

from __future__ import annotations

import numpy as np

from ..core.weights import WeightTable
from ..engine.rng import make_rng


def worst_case_counts(n: int, k: int) -> np.ndarray:
    """Maximally unbalanced legal start: colours ``1..k-1`` hold one
    agent each and colour 0 holds all the rest.

    This is the hard case for Phase 1 ("the rise of the minorities"):
    a singleton colour must grow to Θ(n), which already costs
    Ω(n log n) by the broadcast lower bound quoted in Sec 1.
    """
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    counts = np.ones(k, dtype=np.int64)
    counts[0] = n - (k - 1)
    return counts


def uniform_counts(n: int, k: int) -> np.ndarray:
    """Equal split with remainders to the lowest colour ids."""
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    counts = np.full(k, n // k, dtype=np.int64)
    counts[: n % k] += 1
    return counts


def proportional_counts(n: int, weights: WeightTable) -> np.ndarray:
    """Deterministic rounding of the fair shares ``w_i n / w``.

    Largest-remainder rounding; every colour keeps at least one agent.
    """
    if n < weights.k:
        raise ValueError("need at least one agent per colour")
    exact = weights.fair_shares() * n
    floors = np.floor(exact).astype(np.int64)
    floors = np.maximum(floors, 1)
    while floors.sum() > n:
        floors[int(np.argmax(floors))] -= 1
    remainder = n - floors.sum()
    order = np.argsort(-(exact - np.floor(exact)))
    for index in order[:remainder]:
        floors[index] += 1
    return floors


def random_counts(
    n: int, k: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Uniformly random assignment, repaired so every colour has >= 1."""
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    rng = make_rng(rng)
    assignment = rng.integers(0, k, size=n)
    counts = np.bincount(assignment, minlength=k).astype(np.int64)
    # Repair empties by stealing from the largest colour.
    for colour in range(k):
        while counts[colour] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[colour] += 1
    return counts


def equilibrium_split(
    n: int, weights: WeightTable
) -> tuple[np.ndarray, np.ndarray]:
    """Rounded perfect-equilibrium (dark, light) counts of Eq. (7).

    Used to start aggregate runs *inside* the stabilised regime, e.g.
    to measure plateau statistics without paying the convergence phase.
    Every colour keeps at least one dark agent, so ``n`` must be at
    least ``k``.
    """
    if n < weights.k:
        raise ValueError("need at least one agent per colour")
    dark_exact = weights.dark_shares() * n
    dark = np.maximum(np.round(dark_exact).astype(np.int64), 1)
    light_exact = weights.light_shares() * n
    light = np.maximum(np.round(light_exact).astype(np.int64), 0)
    # Repair the total to exactly n, adjusting light counts first.
    excess = int(dark.sum() + light.sum()) - n
    index = 0
    while excess > 0:
        slot = index % weights.k
        if light[slot] > 0:
            light[slot] -= 1
            excess -= 1
        elif dark[slot] > 1:
            dark[slot] -= 1
            excess -= 1
        index += 1
    while excess < 0:
        light[index % weights.k] += 1
        excess += 1
        index += 1
    return dark, light


def colours_from_counts(counts: np.ndarray) -> list[int]:
    """Expand per-colour counts into an explicit agent colour list."""
    colours: list[int] = []
    for colour, count in enumerate(np.asarray(counts)):
        colours.extend([colour] * int(count))
    return colours
