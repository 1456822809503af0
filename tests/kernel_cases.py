"""The array engine's kernels as test cases, and the coin stub that
feeds a protocol's scalar ``transition`` the coins a kernel step uses.

Shared by ``tests/unit/test_kernel_rules.py``, which checks each
kernel one interaction at a time, and
``tests/property/test_array_invariants.py``, which checks whole engine
runs; both compare against the scalar rules through :class:`StepCoins`.
"""

import math

from repro.baselines.anti_voter import AntiVoterModel
from repro.baselines.epidemic import SISEpidemic
from repro.baselines.three_majority import ThreeMajority
from repro.baselines.trivial import TrivialResampling
from repro.baselines.two_choices import TwoChoices
from repro.baselines.uniform_partition import RandomRecolouring
from repro.baselines.voter import VoterModel
from repro.core.ablations import UnweightedLightening
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable

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
    step's pre-drawn coins in order, and no more.  ``random()`` returns
    them in order, and ``integers(lo, hi)`` returns
    ``lo + floor(coin * (hi - lo))``, the kernels' own map from a coin
    to an integer."""

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
