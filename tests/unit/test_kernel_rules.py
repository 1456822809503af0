"""Each transition kernel against its protocol's scalar rule, one
interaction at a time.

Every registered kernel takes 2,000 pre-drawn interactions (the
initiator's state, its sampled partners' states and the step's coins)
in one vectorised call.  The protocol's scalar ``transition`` takes the
same interactions one at a time, drawing from a stub generator that
serves that step's coins: ``random()`` returns them in order, and
``integers(lo, hi)`` returns ``lo + floor(coin * (hi - lo))``, the
kernels' own map from a coin to an integer.  Every new colour and
shade must agree.  The KS suites compare the engines' distributions;
this test pins each kernel to the rule it vectorises.

The same comparison runs again on coins drawn only from the rules'
thresholds (0, the largest coin below 1, each lightening, infection,
recovery and resampling probability, each cumulative share and each
``j/k``), where a strict ``<`` written as ``<=`` or a pick that rounds
past the last colour would show.  The remaining tests pin the
``_Kernel`` contract the engine relies on: int64 rows that share no
memory with the inputs, inputs left unchanged, and ``refresh``
rejecting a colour-slot count the kernel cannot serve.
"""

import math

import numpy as np
import pytest

from repro.baselines.anti_voter import AntiVoterModel
from repro.baselines.epidemic import SISEpidemic
from repro.baselines.three_majority import ThreeMajority
from repro.baselines.trivial import TrivialResampling
from repro.baselines.two_choices import TwoChoices
from repro.baselines.uniform_partition import RandomRecolouring
from repro.baselines.voter import VoterModel
from repro.core.ablations import UnweightedLightening
from repro.core.diversification import Diversification
from repro.core.state import AgentState
from repro.core.weights import WeightTable
from repro.engine.array_engine import _KERNEL_FACTORIES, kernel_for

STEPS = 2000

#: Weight 1 makes the lightening coin certain and weight 4 rare.
WEIGHTS = (1.0, 2.0, 4.0)

#: (case id, protocol factory, colour slots k).  Trivial resampling
#: gates with probability 0.7 < 1, so its scalar rule draws the gate
#: coin before the pick coin, in the kernel's coin order.
CASES = [
    ("diversification", lambda: Diversification(WeightTable(WEIGHTS)), 3),
    ("unweighted", lambda: UnweightedLightening(WeightTable(WEIGHTS)), 3),
    ("voter", VoterModel, 3),
    ("three-majority", ThreeMajority, 3),
    ("two-choices", TwoChoices, 3),
    ("anti-voter", AntiVoterModel, 2),
    ("sis", lambda: SISEpidemic(0.6, 0.3), 2),
    ("recolouring", lambda: RandomRecolouring(3), 3),
    ("trivial", lambda: TrivialResampling(WeightTable(WEIGHTS), 0.7), 3),
]


class StepCoins:
    """The scalar rule's generator for one interaction: it serves the
    step's pre-drawn coins in order, and no more."""

    def __init__(self, coins):
        self._coins = [float(coin) for coin in coins]
        self._used = 0

    def random(self) -> float:
        assert self._used < len(self._coins), (
            "the scalar rule drew more coins than the kernel takes"
        )
        coin = self._coins[self._used]
        self._used += 1
        return coin

    def integers(self, low: int, high: int) -> int:
        return low + math.floor(self.random() * (high - low))


def edge_coins() -> np.ndarray:
    """Every threshold the nine scalar rules compare a coin against,
    plus 0 and the largest coin below 1."""
    sis = SISEpidemic(0.6, 0.3)
    trivial = TrivialResampling(WeightTable(WEIGHTS), 0.7)
    coins = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            1.0 / np.asarray(WEIGHTS),
            [sis.transmission, sis.recovery, trivial.resample_probability],
            trivial.cumulative_shares(),
            [j / k for k in (2, 3) for j in range(1, k)],
        ]
    )
    return np.unique(coins[coins < 1.0])


def interactions(protocol, coins: int, k: int, seed: int, coin_values=None):
    """``STEPS`` interactions over ``k`` colours and both shades; the
    coins are uniform, or drawn from ``coin_values`` when given."""
    rng = np.random.default_rng(seed)
    arity = int(protocol.arity)
    uc = rng.integers(0, k, size=STEPS)
    us = rng.integers(0, 2, size=STEPS)
    vc = rng.integers(0, k, size=(STEPS, arity))
    vs = rng.integers(0, 2, size=(STEPS, arity))
    if coin_values is None:
        drawn = rng.random((STEPS, coins))
    else:
        drawn = rng.choice(coin_values, size=(STEPS, coins))
    return uc, us, vc, vs, drawn


def scalar_mismatches(protocol, kernel, uc, us, vc, vs, coins):
    """The interactions where the kernel and the scalar rule differ."""
    new_c, new_s = kernel.apply(uc, us, vc, vs, coins)
    mismatches = []
    for i in range(STEPS):
        u = AgentState(int(uc[i]), int(us[i]))
        sampled = [
            AgentState(int(c), int(s)) for c, s in zip(vc[i], vs[i])
        ]
        want = protocol.transition(u, sampled, StepCoins(coins[i]))
        got = (int(new_c[i]), int(new_s[i]))
        if got != (want.colour, want.shade):
            mismatches.append((i, u, sampled, got, want))
    return mismatches


def assert_no_mismatches(mismatches):
    assert not mismatches, (
        f"{len(mismatches)} of {STEPS} interactions differ; first: "
        f"{mismatches[0]}"
    )


def test_cases_cover_every_registered_kernel():
    assert {type(factory()) for _, factory, _ in CASES} == set(
        _KERNEL_FACTORIES
    )


KERNEL_CASES = pytest.mark.parametrize(
    "factory, k", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)


@KERNEL_CASES
def test_kernel_applies_the_scalar_rule(factory, k):
    protocol = factory()
    kernel = kernel_for(protocol)
    kernel.refresh(k)
    inputs = interactions(protocol, kernel.coins, k, seed=k)
    assert_no_mismatches(scalar_mismatches(protocol, kernel, *inputs))


@KERNEL_CASES
def test_kernel_applies_the_scalar_rule_at_threshold_coins(factory, k):
    protocol = factory()
    kernel = kernel_for(protocol)
    kernel.refresh(k)
    inputs = interactions(
        protocol, kernel.coins, k, seed=10 + k, coin_values=edge_coins()
    )
    assert_no_mismatches(scalar_mismatches(protocol, kernel, *inputs))


@KERNEL_CASES
def test_kernel_returns_fresh_int64_rows_and_keeps_its_inputs(factory, k):
    protocol = factory()
    kernel = kernel_for(protocol)
    kernel.refresh(k)
    inputs = interactions(protocol, kernel.coins, k, seed=20 + k)
    before = [array.copy() for array in inputs]
    outputs = kernel.apply(*inputs)
    for array, original in zip(inputs, before):
        assert np.array_equal(array, original)
    for out in outputs:
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.int64
        assert out.shape == (STEPS,)
        assert not any(np.shares_memory(out, array) for array in inputs)


#: (case id, protocol factory, a slot count its kernel cannot serve,
#: the error's words).
REFUSED = [
    (
        "diversification",
        lambda: Diversification(WeightTable(WEIGHTS)),
        4,
        "weight table grew to 3 colours",
    ),
    (
        "unweighted",
        lambda: UnweightedLightening(WeightTable(WEIGHTS)),
        2,
        "built for k=2",
    ),
    ("anti-voter", AntiVoterModel, 3, "exactly two colour slots"),
    ("sis", lambda: SISEpidemic(0.6, 0.3), 3, "exactly two colour slots"),
    (
        "recolouring",
        lambda: RandomRecolouring(3),
        2,
        "redraws over 3 colours",
    ),
    (
        "trivial",
        lambda: TrivialResampling(WeightTable(WEIGHTS), 0.7),
        2,
        "draws over 3 colours",
    ),
]


@pytest.mark.parametrize(
    "factory, k, words",
    [case[1:] for case in REFUSED],
    ids=[case[0] for case in REFUSED],
)
def test_refresh_rejects_a_slot_count_the_kernel_cannot_serve(
    factory, k, words
):
    with pytest.raises(ValueError, match=words):
        kernel_for(factory()).refresh(k)
