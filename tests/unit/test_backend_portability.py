"""Backend-portability suite: the transition-kernel layer under
``array-api-strict``.

The strict namespace is the pure-Python reference implementation of
the array-API standard — it deliberately rejects every NumPy-ism
(fancy indexing, ``out=``, scalar promotion in ``where``), so a kernel
that runs on it unmodified is portable to any conforming backend.
For each registered kernel the test drives the same pre-drawn inputs
through the NumPy build and the strict build and asserts the outputs
agree **bit-for-bit on the integer paths** (colours and shades are the
only kernel outputs) and to fp tolerance on the float-valued internal
tables.

Skipped wholesale when ``array_api_strict`` is not installed (it is a
CI-installed extra, not a runtime dependency).
"""

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
from repro.core.weights import WeightTable
from repro.engine.array_engine import kernel_for
from repro.engine.backend import resolve_backend

pytest.importorskip("array_api_strict")

STRICT = resolve_backend("array-api-strict")
HOST = resolve_backend("numpy")

#: (case id, protocol factory, k).  Factories are re-invoked per build
#: so the two kernels never share mutable protocol state.
CASES = [
    ("diversification", lambda: Diversification(WeightTable([1.0, 2.0, 4.0])), 3),
    ("unweighted", lambda: UnweightedLightening(WeightTable([1.0, 2.0, 4.0])), 3),
    ("voter", VoterModel, 3),
    ("three-majority", ThreeMajority, 3),
    ("two-choices", TwoChoices, 3),
    ("anti-voter", AntiVoterModel, 2),
    ("sis", lambda: SISEpidemic(0.6, 0.3), 2),
    ("recolouring", lambda: RandomRecolouring(3), 3),
    ("trivial", lambda: TrivialResampling(WeightTable([1.0, 2.0, 4.0]), 0.7), 3),
]


def _draw_inputs(protocol_factory, k, m=257, seed=0):
    """Pre-drawn kernel inputs as host arrays (the seeding contract:
    randomness originates on the host on every backend)."""
    protocol = protocol_factory()
    kernel = kernel_for(protocol)  # numpy build, just for arity/coins
    rng = np.random.default_rng(seed)
    arity = int(protocol.arity)
    uc = rng.integers(0, k, size=m, dtype=np.int64)
    us = rng.integers(0, 2, size=m, dtype=np.int64)
    vc = rng.integers(0, k, size=(m, arity), dtype=np.int64)
    vs = rng.integers(0, 2, size=(m, arity), dtype=np.int64)
    coins = rng.random((m, max(kernel.coins, 1)))[:, : kernel.coins]
    return uc, us, vc, vs, coins


@pytest.mark.parametrize(
    "case", CASES, ids=[case_id for case_id, _, _ in CASES]
)
def test_kernel_matches_numpy_bit_for_bit(case):
    _, factory, k = case
    uc, us, vc, vs, coins = _draw_inputs(factory, k)

    host_kernel = kernel_for(factory(), backend=HOST)
    host_kernel.refresh(k)
    want_c, want_s = host_kernel.apply(uc, us, vc, vs, coins)

    strict_kernel = kernel_for(factory(), backend=STRICT)
    strict_kernel.refresh(k)
    got_c, got_s = strict_kernel.apply(
        STRICT.from_host(uc),
        STRICT.from_host(us),
        STRICT.from_host(vc),
        STRICT.from_host(vs),
        STRICT.from_host(coins),
    )

    np.testing.assert_array_equal(STRICT.to_numpy(got_c), want_c)
    np.testing.assert_array_equal(STRICT.to_numpy(got_s), want_s)


def test_float_tables_agree_to_fp_tolerance():
    """The kernels' float-valued internal tables (lighten thresholds,
    cumulative shares) round-trip the strict backend unchanged."""
    weights = WeightTable([1.0, 2.0, 4.0])
    host_kernel = kernel_for(Diversification(weights), backend=HOST)
    host_kernel.refresh(3)
    strict_kernel = kernel_for(
        Diversification(WeightTable([1.0, 2.0, 4.0])), backend=STRICT
    )
    strict_kernel.refresh(3)
    np.testing.assert_allclose(
        STRICT.to_numpy(strict_kernel._lighten),
        host_kernel._lighten,
        rtol=0,
        atol=0,
    )

    trivial = lambda: TrivialResampling(WeightTable([1.0, 2.0, 4.0]), 0.7)
    host_trivial = kernel_for(trivial(), backend=HOST)
    host_trivial.refresh(3)
    strict_trivial = kernel_for(trivial(), backend=STRICT)
    strict_trivial.refresh(3)
    np.testing.assert_allclose(
        STRICT.to_numpy(strict_trivial._cum),
        host_trivial._cum,
        rtol=0,
        atol=0,
    )


def test_strict_backend_identity():
    assert STRICT.name == "array-api-strict"
    assert not STRICT.is_host
    assert not STRICT.supports_engine_loops
    round_trip = STRICT.to_numpy(
        STRICT.from_host(np.arange(5, dtype=np.int64))
    )
    np.testing.assert_array_equal(round_trip, np.arange(5))


def test_strict_uniform_block_matches_host_stream():
    """Device-placed blocks come from the same host stream — the same
    seed yields the same uniforms on every backend."""
    want = np.random.default_rng(11).random((4, 3))
    got = STRICT.uniform_block(np.random.default_rng(11), (4, 3))
    np.testing.assert_array_equal(STRICT.to_numpy(got), want)
