"""Each transition kernel against its protocol's scalar rule, one
interaction at a time.

Every registered kernel runs 2,000 pre-drawn interactions in one
``apply`` call.  Each interaction has agents of its own — step ``j``'s
initiator is agent ``j`` and its partners follow the initiators — so no
step reads another's write, and every step sees the state it was
drawn with.  The protocol's scalar ``transition`` takes the same
interactions one at a time, drawing from :class:`StepCoins`, which
serves that step's coins.  Every new colour and shade must agree.  The
KS suites compare the engines' distributions, and
``tests/property/test_array_invariants.py`` checks whole runs, where
steps do read each other's writes; this test pins each kernel to the
rule it runs.

The same comparison runs again on coins drawn only from the rules'
thresholds (0, the largest coin below 1, each lightening, infection,
recovery and resampling probability, each cumulative share and each
``j/k``), where a strict ``<`` written as ``<=`` or a pick that rounds
past the last colour would show.  The remaining tests pin the loop's
contract with the engine: it writes only initiators' entries, each
step uses only its own coins, and it reports every change once, in
step order, with its return value counting them.
"""

import numpy as np
import pytest

from repro.baselines.anti_voter import AntiVoterModel
from repro.baselines.epidemic import SISEpidemic
from repro.baselines.trivial import TrivialResampling
from repro.baselines.uniform_partition import RandomRecolouring
from repro.core.ablations import UnweightedLightening
from repro.core.diversification import Diversification
from repro.core.state import AgentState
from repro.core.weights import WeightTable
from repro.engine.array_engine import _KERNEL_FACTORIES, kernel_for

from kernel_cases import CASES, WEIGHTS, StepCoins

STEPS = 2000


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
    """``STEPS`` interactions over ``k`` colours and both shades, as the
    loop takes them: colour and shade lists, the initiators, one
    partner list per slot and one coin list per coin.  Step ``j``'s
    initiator is agent ``j`` and its partners are agents
    ``STEPS + j * arity + a``.  The coins are uniform, or drawn from
    ``coin_values`` when given."""
    rng = np.random.default_rng(seed)
    arity = int(protocol.arity)
    n = STEPS * (1 + arity)
    colours = rng.integers(0, k, size=n).tolist()
    shades = rng.integers(0, 2, size=n).tolist()
    initiators = list(range(STEPS))
    partners = [list(range(STEPS + a, n, arity)) for a in range(arity)]
    if coin_values is None:
        drawn = rng.random((coins, STEPS))
    else:
        drawn = rng.choice(coin_values, size=(coins, STEPS))
    return colours, shades, initiators, partners, drawn.tolist()


def prepared(factory, k: int, seed: int, coin_values=None):
    """A refreshed kernel, its protocol and a set of interactions."""
    protocol = factory()
    kernel = kernel_for(protocol)
    kernel.refresh(k)
    inputs = interactions(protocol, kernel.coins, k, seed, coin_values)
    return protocol, kernel, inputs


def scalar_mismatches(protocol, kernel, colours, shades, initiators,
                      partners, coins):
    """The interactions where the kernel and the scalar rule differ."""
    before = list(zip(colours, shades))
    kernel.apply(colours, shades, initiators, partners, coins, None)
    mismatches = []
    for j in range(STEPS):
        u = AgentState(*before[j])
        sampled = [AgentState(*before[slot[j]]) for slot in partners]
        want = protocol.transition(
            u, sampled, StepCoins([column[j] for column in coins])
        )
        got = (colours[j], shades[j])
        if got != (want.colour, want.shade):
            mismatches.append((j, u, sampled, got, want))
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
    protocol, kernel, inputs = prepared(factory, k, seed=k)
    assert_no_mismatches(scalar_mismatches(protocol, kernel, *inputs))


@KERNEL_CASES
def test_kernel_applies_the_scalar_rule_at_threshold_coins(factory, k):
    protocol, kernel, inputs = prepared(
        factory, k, seed=10 + k, coin_values=edge_coins()
    )
    assert_no_mismatches(scalar_mismatches(protocol, kernel, *inputs))


@KERNEL_CASES
def test_kernel_writes_only_initiators_and_uses_only_its_own_coins(
    factory, k
):
    """One call over every step against one call per step, each given
    only that step's initiator, partners and coins: both leave the same
    state and count the same changes, and neither touches a partner."""
    _, kernel, inputs = prepared(factory, k, seed=20 + k)
    colours, shades, initiators, partners, coins = inputs
    whole_c, whole_s = list(colours), list(shades)
    whole = kernel.apply(whole_c, whole_s, initiators, partners, coins, None)
    assert whole_c[STEPS:] == colours[STEPS:]
    assert whole_s[STEPS:] == shades[STEPS:]
    stepped = sum(
        kernel.apply(
            colours, shades, [initiators[j]],
            [[slot[j]] for slot in partners],
            [[column[j]] for column in coins], None,
        )
        for j in range(STEPS)
    )
    assert (colours, shades) == (whole_c, whole_s)
    assert stepped == whole


@KERNEL_CASES
def test_kernel_reports_every_change_once_in_step_order(factory, k):
    """``on_change`` sees ``(step, agent, old colour, old shade, new
    colour, new shade)`` after the write, and ``apply`` returns how
    many it reported."""
    _, kernel, inputs = prepared(factory, k, seed=30 + k)
    colours, shades, initiators, partners, coins = inputs
    before = list(zip(colours, shades))
    reported = []

    def on_change(j, agent, old_c, old_s, new_c, new_s):
        assert (colours[agent], shades[agent]) == (new_c, new_s)
        reported.append((j, agent, old_c, old_s, new_c, new_s))

    count = kernel.apply(
        colours, shades, initiators, partners, coins, on_change
    )
    expected = [
        (j, j, *before[j], colours[j], shades[j])
        for j in range(STEPS)
        if (colours[j], shades[j]) != before[j]
    ]
    assert reported == expected
    assert count == len(expected) > 0


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
