"""The snapshot payload and the generator state it carries.

The loop digests hash ``rng_state`` and the split-invariance properties
compare it, so it must hold the whole bit-generator state, cached half
word included, as plain JSON-able values, whatever the bit generator.
"""

import json

import numpy as np
import pytest

from repro.engine import checkpoint as ckpt

BIT_GENERATORS = [
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.SFC64,
    np.random.Philox,
    np.random.MT19937,
]


def test_payload_leads_with_format_and_engine():
    view = ckpt.payload("Engine", time=3, counts=np.arange(2))
    assert list(view) == ["format", "engine", "time", "counts"]
    assert view["format"] == ckpt.CKPT_FORMAT == "repro-ckpt/v1"
    assert view["engine"] == "Engine"


@pytest.mark.parametrize(
    "bit_generator", BIT_GENERATORS, ids=lambda cls: cls.__name__
)
def test_rng_state_survives_json_and_continues_the_draws(bit_generator):
    """An odd number of 32-bit draws leaves half a word cached (PCG64,
    PCG64DXSM, SFC64 and Philox): the state must carry it."""
    rng = np.random.Generator(bit_generator(11))
    rng.random(97)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    state = json.loads(json.dumps(ckpt.rng_state(rng)))
    twin = np.random.Generator(bit_generator(0))
    twin.bit_generator.state = state
    assert ckpt.rng_state(twin) == ckpt.rng_state(rng)
    np.testing.assert_array_equal(
        twin.integers(0, 2**32, size=5, dtype=np.uint32),
        rng.integers(0, 2**32, size=5, dtype=np.uint32),
    )
    np.testing.assert_array_equal(twin.random(50), rng.random(50))
