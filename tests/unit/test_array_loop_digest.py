"""Bit-exact digests of the array engine's step loop.

:class:`repro.engine.array_engine.ArraySimulation` draws its steps in
blocks and applies them one by one, and its trajectory is a fixed
function of the seed: how ``run`` calls split the steps must not show.
Each case below runs one engine from a fixed seed and hashes (SHA-256)
its colours, shades, clock, change count, draw-buffer cursor and
bit-generator state.  The hash also takes an empty dict between the
cursor and the generator state: the constants were recorded when the
snapshot carried a scheduler's state there, which was empty for the
uniform activation every engine uses.

The constants were recorded from earlier loops that evaluated the
kernels vectorised over groups of steps (first segments cut on
scheduled writes, then windows cut on effective writes), and the
per-step loop reproduces them unedited.  So they pin the exact draws
and the exact state every step reads: a step that sees a stale or a
premature write, a change applied twice or dropped, or a draw consumed
out of place changes a digest.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.baselines.epidemic import SISEpidemic
from repro.baselines.three_majority import ThreeMajority
from repro.baselines.trivial import TrivialResampling
from repro.baselines.two_choices import TwoChoices
from repro.baselines.uniform_partition import RandomRecolouring
from repro.baselines.voter import VoterModel
from repro.core.ablations import UnweightedLightening
from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine.array_engine import ArraySimulation
from repro.engine.observers import Observer
from repro.experiments.workloads import colours_from_counts, worst_case_counts
from repro.topology import CycleGraph


def digest(*parts) -> str:
    """SHA-256 over arrays (with dtype and shape) and JSON-able values."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            sha.update(f"{array.dtype.str}{array.shape}".encode())
            sha.update(array.tobytes())
        else:
            sha.update(json.dumps(part, sort_keys=True).encode())
    return sha.hexdigest()


def array_digest(sim: ArraySimulation) -> str:
    snap = sim.snapshot()
    return digest(
        snap["colours"], snap["shades"], snap["time"], snap["changes"],
        snap["buf_pos"], {}, snap["rng"],
    )


def run_in_calls(sim: ArraySimulation, total: int, calls) -> ArraySimulation:
    """Run ``total`` steps in ``run`` calls cycling through ``calls``."""
    done = 0
    for size in itertools.cycle(calls):
        if done >= total:
            return sim
        take = min(size, total - done)
        sim.run(take)
        done += take


def worst_case(n: int, k: int) -> np.ndarray:
    return np.asarray(
        colours_from_counts(worst_case_counts(n, k)), dtype=np.int64
    )


#: The quick ablation table's instance: n = 256, four colours.
N = 256
WEIGHTS = (1.0, 2.0, 3.0, 4.0)
#: Three draw blocks (8192 steps each) minus a partial one.
STEPS = 24_000
SEED = 2024

RULES = {
    "diversification": Diversification,
    "a2": UnweightedLightening,
}


def ablation(rule: str = "diversification", **kwargs) -> ArraySimulation:
    weights = WeightTable(WEIGHTS)
    return ArraySimulation(
        RULES[rule](weights), worst_case(N, weights.k), k=weights.k,
        rng=SEED, **kwargs,
    )


def baseline(protocol, k: int = 3, n: int = N) -> ArraySimulation:
    colours = np.arange(n, dtype=np.int64) % k
    return ArraySimulation(protocol, colours, k=k, rng=SEED)


class ChangeLog(Observer):
    """Logs every ``on_change`` with the clocks and the live colour
    count the observer sees."""

    def __init__(self):
        self.entries = []

    def on_change(self, simulation, agent, old, new):
        self.entries.append([
            simulation.time, simulation.changes, agent,
            old.colour, old.shade, new.colour, new.shade,
            int(simulation.colour_counts()[new.colour]),
        ])


SINGLE = {
    "diversification":
        "0786be1f4fa9afabda8f92272bb72514c0f459da21f46a64051e5f198043c675",
    "a2":
        "572612a628b9621978e468b381ed919cdf695f471fafcc364e240ad2afeba206",
    "large":
        "d21ec6ea5294724ddfd72dd4a9a95f21861ef065a97ca192806d47e5cb563686",
    "three_majority":
        "1bf980f93cc0bd0a649946f10b4008eb77a7e407d95f6dc2fc9cb644becf5229",
    "voter":
        "9d963289abf05ac60ece20ba05ad32051ca626887edbcaab9250561e35e3d61a",
    "cycle":
        "4f9027b7ff634b5706d7986affaa053c34bbc188e47ed454f2352230b35a102c",
    "interventions":
        "239329290ed7b165e057be67c1e7a45c71847f90d4c2f102b4a7b5861bd14dea",
    "change_log":
        "eb6a2651d7fa6379b37235a76cb538d80274935b605fd2966ef78625db232544",
}

#: The other baseline kernels: 20,000 steps in 1500-step calls from a
#: cyclic start.  These were recorded later than ``SINGLE``, from the
#: loop that cuts windows on effective writes (which reproduces every
#: ``SINGLE`` digest).  2-Choices runs at n = 2048, where 20,000 steps
#: stop short of consensus (n = 256 reaches it by step 3000).
BASELINES = {
    "two_choices": (
        lambda: baseline(TwoChoices(), n=2048),
        "eee43c7be4a603caf2a6705b75f5ad93866b64a177a1b68ebaac4d1e20219264",
    ),
    "sis": (
        lambda: baseline(SISEpidemic(0.3, 0.1), k=2),
        "2965c042a13b6f0bcfbde68cd7de965923030c4355fcb5da23ea35956104a9a4",
    ),
    "random_recolouring": (
        lambda: baseline(RandomRecolouring(3)),
        "9663ef37894baf088c1f404a45cfde0705438c6cc48f701b33993c736d199a5c",
    ),
    "trivial_resampling": (
        lambda: baseline(
            TrivialResampling(WeightTable([1.0, 2.0, 3.0]), 0.5)
        ),
        "e92a66b364b34f1174b83be50ef5af503cada56ecb0a5ba2f17a3b76cd0b967f",
    ),
}


class TestSingleRunDigests:
    @pytest.mark.parametrize("calls", [(1500,), (7, 1, 333)])
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_ablation_variants(self, rule, calls):
        """The ablation table's 1500-step calls and an uneven 7/1/333
        split reach the same state."""
        sim = run_in_calls(ablation(rule), STEPS, calls)
        assert array_digest(sim) == SINGLE[rule]

    def test_large_population(self):
        """n = 10,000, E14's population size, in one ``run`` call
        that crosses seven draw blocks."""
        weights = WeightTable([1.0, 2.0, 3.0])
        sim = ArraySimulation(
            Diversification(weights), worst_case(10_000, 3), k=3, rng=SEED
        ).run(60_000)
        assert array_digest(sim) == SINGLE["large"]

    def test_three_majority(self):
        """Arity 2: a step reads two partners besides its initiator."""
        sim = run_in_calls(baseline(ThreeMajority()), 20_000, (1500,))
        assert array_digest(sim) == SINGLE["three_majority"]

    def test_voter(self):
        """A kernel that draws no coins."""
        sim = run_in_calls(baseline(VoterModel()), 20_000, (1500,))
        assert array_digest(sim) == SINGLE["voter"]

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_baseline_kernels(self, name):
        """No coins (2-Choices), one coin read two ways
        (SIS), a coin picking a colour (random recolouring) and two
        coins (trivial resampling)."""
        build, expected = BASELINES[name]
        sim = run_in_calls(build(), 20_000, (1500,))
        assert array_digest(sim) == expected

    def test_csr_cycle(self):
        sim = ablation(topology=CycleGraph(N)).run(20_000)
        assert array_digest(sim) == SINGLE["cycle"]

    def test_interventions_between_runs(self):
        """Growth re-anchors the draw stream mid-block; a recolouring
        keeps the buffer."""
        sim = ablation().run(5000)
        sim.add_agents(1, 20)
        sim.run(3000)
        colour = sim.add_colour(2.0, 12)
        sim.run(4000)
        sim.recolour(0, colour)
        sim.run(6000)
        assert sim.n == N + 32 and sim.k == len(WEIGHTS) + 1
        assert array_digest(sim) == SINGLE["interventions"]

    def test_observer_sees_every_change(self):
        """The observer sees each change at its own step's clock, with
        the live counts already updated; observing leaves the
        trajectory alone."""
        log = ChangeLog()
        sim = run_in_calls(ablation(observers=[log]), STEPS, (1500,))
        assert len(log.entries) == sim.changes
        assert array_digest(sim) == SINGLE["diversification"]
        assert digest(log.entries) == SINGLE["change_log"]

    def test_step_loop(self):
        sim = ablation().run(2000)
        changed = sum(sim.step() for _ in range(300))
        sim.run(STEPS - 2300)
        assert 0 < changed < 300
        assert array_digest(sim) == SINGLE["diversification"]
