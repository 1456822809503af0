"""The perfect-equilibrium Markov chain of Sec 2.4.

A single agent's trajectory through the ``2k`` states
``{D_1..D_k, L_1..L_k}`` is not a Markov chain (transitions depend on
the whole configuration), but near equilibrium it is approximated by
the chain ``M`` with transition matrix ``P``:

    P(L_j, D_i) = w_i / ((1 + w) n)        for all i, j
    P(L_i, L_i) = 1 − w / ((1 + w) n)
    P(D_i, L_i) = 1 / ((1 + w) n)
    P(D_i, D_i) = 1 − 1 / ((1 + w) n)

with stationary distribution ``π(D_i) = w_i/(1+w)`` and
``π(L_i) = (w_i/w)/(1+w)`` (Eqs. (18)-(19)).  The fairness proof
sandwiches the real trajectory between the ``±err`` perturbed chains
``P±`` and applies Chernoff bounds for Markov chains; this module
implements all of those objects so experiment E8 can check them
numerically.

State indexing: dark states first — ``D_i ↦ i`` and ``L_i ↦ k + i``.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..core.weights import WeightTable
from ..engine.rng import make_rng

#: Uniforms :func:`simulate_chain` converts to Python floats at a time.
_CHUNK = 4096


def dark_state(colour: int) -> int:
    """Index of the dark state of ``colour``."""
    return colour


def light_state(colour: int, k: int) -> int:
    """Index of the light state of ``colour``."""
    return k + colour


def equilibrium_chain(weights: WeightTable, n: int) -> np.ndarray:
    """Transition matrix ``P`` of the equilibrium chain (Sec 2.4)."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = weights.k
    w = weights.total
    warray = weights.as_array()
    P = np.zeros((2 * k, 2 * k), dtype=np.float64)
    scale = 1.0 / ((1.0 + w) * n)
    for i in range(k):
        P[dark_state(i), light_state(i, k)] = scale
        P[dark_state(i), dark_state(i)] = 1.0 - scale
    for j in range(k):
        row = light_state(j, k)
        for i in range(k):
            P[row, dark_state(i)] = warray[i] * scale
        P[row, row] = 1.0 - w * scale
    return P


def theoretical_stationary(weights: WeightTable) -> np.ndarray:
    """``π`` from Eqs. (18)-(19): dark mass ``w_i/(1+w)``, light mass
    ``(w_i/w)/(1+w)`` (indexing as in :func:`equilibrium_chain`)."""
    w = weights.total
    warray = weights.as_array()
    return np.concatenate([warray / (1.0 + w), warray / (w * (1.0 + w))])


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solved as the null space of ``(Pᵀ − I)`` with the normalisation
    constraint appended — robust for the small chains used here.
    """
    P = np.asarray(P, dtype=np.float64)
    size = P.shape[0]
    if P.shape != (size, size):
        raise ValueError("P must be square")
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("P rows must sum to 1")
    system = np.vstack([P.T - np.eye(size), np.ones((1, size))])
    target = np.concatenate([np.zeros(size), [1.0]])
    solution, *_ = np.linalg.lstsq(system, target, rcond=None)
    solution = np.clip(solution, 0.0, None)
    return solution / solution.sum()


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two distributions."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def mixing_time(
    P: np.ndarray, epsilon: float = 0.125, max_steps: int = 10_000_000
) -> int:
    """Smallest ``t`` with worst-case start TV distance ``<= epsilon``.

    Uses repeated squaring to bracket the answer, then binary search,
    so chains with mixing time Θ(n log n) remain cheap to analyse.
    """
    P = np.asarray(P, dtype=np.float64)
    pi = stationary_distribution(P)

    def worst_tv(power: np.ndarray) -> float:
        return float(0.5 * np.abs(power - pi[None, :]).sum(axis=1).max())

    if worst_tv(P) <= epsilon:
        return 1
    # Bracket by squaring: powers[i] = P^(2^i).
    powers = [P]
    steps = 1
    while worst_tv(powers[-1]) > epsilon:
        if steps >= max_steps:
            raise RuntimeError(
                f"mixing time exceeds max_steps={max_steps}"
            )
        powers.append(powers[-1] @ powers[-1])
        steps *= 2
    low, high = steps // 2, steps  # tv(low) > eps >= tv(high)
    base = powers[-2]
    low_power = base
    while high - low > 1:
        mid = (low + high) // 2
        mid_power = low_power @ _matrix_power(P, mid - low)
        if worst_tv(mid_power) <= epsilon:
            high = mid
        else:
            low, low_power = mid, mid_power
    return high


def _matrix_power(P: np.ndarray, exponent: int) -> np.ndarray:
    result = np.eye(P.shape[0])
    base = P
    while exponent:
        if exponent & 1:
            result = result @ base
        base = base @ base
        exponent >>= 1
    return result


def perturbed_chain(
    weights: WeightTable,
    n: int,
    target_colour: int,
    err: float,
    *,
    sign: int = +1,
    target_dark: bool = True,
) -> np.ndarray:
    """The ``P±`` perturbation of Sec 2.4 around a target state.

    For the dark target ``D_ℓ`` and ``sign=+1`` this boosts every
    transition that moves an agent toward ``D_ℓ`` by ``err`` (``k·err``
    for the light→target arrows) and reduces the escaping ones, exactly
    as listed in the paper; ``sign=-1`` flips the perturbation.  The
    light-target version is defined symmetrically.

    Raises:
        ValueError: if ``err`` is too large for the entries to remain a
            stochastic matrix.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if err < 0:
        raise ValueError("err must be non-negative")
    k = weights.k
    if not 0 <= target_colour < k:
        raise ValueError(f"unknown colour {target_colour}")
    P = equilibrium_chain(weights, n)
    e = sign * err
    ell = target_colour
    if target_dark:
        # Rows D_i.
        P[dark_state(ell), light_state(ell, k)] -= e
        P[dark_state(ell), dark_state(ell)] += e
        for i in range(k):
            if i == ell:
                continue
            P[dark_state(i), light_state(i, k)] += e
            P[dark_state(i), dark_state(i)] -= e
        # Rows L_i.
        for i in range(k):
            row = light_state(i, k)
            P[row, dark_state(ell)] += k * e
            for j in range(k):
                if j != ell:
                    P[row, dark_state(j)] -= e
            P[row, row] -= e
    else:
        # Symmetric construction for the light target L_ℓ: boost the
        # arrows into L_ℓ (D_ℓ -> L_ℓ) and slow the ones out of it.
        P[dark_state(ell), light_state(ell, k)] += e
        P[dark_state(ell), dark_state(ell)] -= e
        for i in range(k):
            if i == ell:
                continue
            P[dark_state(i), light_state(i, k)] -= e
            P[dark_state(i), dark_state(i)] += e
        row = light_state(ell, k)
        for j in range(k):
            P[row, dark_state(j)] -= e
        P[row, row] += k * e
    if (P < -1e-15).any() or (P > 1.0 + 1e-15).any():
        raise ValueError(
            f"err={err} too large: perturbed entries leave [0, 1]"
        )
    P = np.clip(P, 0.0, 1.0)
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
        raise AssertionError("perturbation broke row stochasticity")
    return P


def simulate_chain(
    P: np.ndarray,
    start: int,
    steps: int,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Simulate the chain and return per-state visit counts.

    Visits are counted for the ``steps`` states *after* leaving the
    start (i.e. states at times 1..steps).  Each step takes the next of
    ``steps`` uniforms drawn by one ``rng.random`` call, in chunks of
    ``_CHUNK`` Python floats, and picks the state with ``bisect_right``
    on the current row's cumulative sums: on the same floats this is
    ``np.searchsorted(row, u, side="right")``.

    Raises:
        ValueError: If ``start`` is not a state, ``0 <= start < size``.
    """
    P = np.asarray(P, dtype=np.float64)
    size = P.shape[0]
    if not 0 <= start < size:
        raise ValueError(f"start must be a state in [0, {size}), got {start}")
    rng = make_rng(rng)
    last = size - 1
    cumulative = np.cumsum(P, axis=1).tolist()
    visits = [0] * size
    state = start
    uniforms = rng.random(steps)
    for begin in range(0, steps, _CHUNK):
        for u in uniforms[begin:begin + _CHUNK].tolist():
            state = bisect_right(cumulative[state], u)
            if state > last:  # numerical edge
                state = last
            visits[state] += 1
    return np.asarray(visits, dtype=np.int64)
