"""``snapshot()`` is a read-only view of every engine's state.

No engine restores a snapshot.  The view exists for the loop digests,
which hash its fields, and for the split-invariance properties, which
compare them (``test_split_invariance.py``).  Both rely on what this
module checks for every engine:

* the view owns its arrays and dicts: changing any one of them leaves
  the engine, its next view and its continued run alone;
* taking a view never moves the trajectory;
* the view carries the fields the engine has always returned, and the
  seed reaches them;
* a run cut into many ``run`` calls, or cut exactly at a draw-block
  boundary of the block-buffered agent engines, leaves the same view as
  the uninterrupted run.
"""

import copy
import itertools

import numpy as np
import pytest

from repro.core.diversification import Diversification
from repro.core.weights import WeightTable
from repro.engine import (
    AggregateSimulation,
    ArraySimulation,
    BatchedAggregateSimulation,
    HeterogeneousAggregateBatch,
    MultiShadeAggregate,
    Population,
    RoundRobinScheduler,
    Simulation,
)
from repro.engine.array_engine import _BLOCK as ARRAY_BLOCK
from repro.engine.checkpoint import CKPT_FORMAT
from repro.engine.simulator import _BLOCK as SIMULATION_BLOCK
from repro.topology import CycleGraph

WEIGHTS = [1.0, 2.0, 3.0]
DARK = [30, 20, 10]
SEED = 20
#: Steps before a view is taken: mid-block for the buffered engines.
SPLIT = 137
TOTAL = 600


def aggregate(seed):
    return AggregateSimulation(
        WeightTable(WEIGHTS), dark_counts=DARK, rng=seed
    )


def multishade(seed):
    return MultiShadeAggregate(
        WeightTable(WEIGHTS), colour_counts=[12, 10, 8], rng=seed
    )


def batched(seed):
    return BatchedAggregateSimulation(
        WeightTable(WEIGHTS), DARK, replications=3, rng=seed
    )


def hetero(seed):
    return HeterogeneousAggregateBatch(
        [WeightTable([1.0, 2.0]), WeightTable(WEIGHTS)],
        [[20, 10], [15, 10, 5]],
        rng=seed,
    )


def simulation(seed, **kwargs):
    protocol = Diversification(WeightTable(WEIGHTS))
    colours = [i % len(WEIGHTS) for i in range(12)]
    population = Population.from_colours(colours, protocol, k=len(WEIGHTS))
    return Simulation(protocol, population, rng=seed, **kwargs)


def array(seed, **kwargs):
    colours = np.asarray([i % len(WEIGHTS) for i in range(16)])
    return ArraySimulation(
        Diversification(WeightTable(WEIGHTS)),
        colours,
        k=len(WEIGHTS),
        rng=seed,
        **kwargs,
    )


ENGINES = {
    "aggregate": aggregate,
    "multishade": multishade,
    "batched": batched,
    "hetero": hetero,
    "simulation": simulation,
    "simulation-cycle": lambda seed: simulation(seed, topology=CycleGraph(12)),
    "simulation-round-robin": lambda seed: simulation(
        seed, scheduler=RoundRobinScheduler(start=5)
    ),
    "array": array,
    "array-cycle": lambda seed: array(seed, topology=CycleGraph(16)),
    "array-round-robin": lambda seed: array(
        seed, scheduler=RoundRobinScheduler(start=5)
    ),
}

ROW_FIELDS = {
    "weights", "ks", "dark", "light", "lighten", "times", "pending", "n",
    "streams", "rng",
}
SIMULATION_FIELDS = {
    "colours", "shades", "k", "time", "changes", "buffered", "buf_pos",
    "buf_n", "scheduler", "rng", "buf_initiators", "buf_partners",
    "weights",
}
ARRAY_FIELDS = {
    "colours", "shades", "k", "n", "time", "changes", "buffered",
    "buf_pos", "scheduler", "rng", "buf_init", "buf_partners",
    "buf_coins", "weights",
}

#: The fields of a view taken mid-block, besides ``format`` and
#: ``engine``.  On a cycle the agent engine draws partners per step, so
#: it buffers initiators only.
FIELDS = {
    "aggregate": {"weights", "dark", "light", "lighten", "time", "pending",
                  "rng"},
    "multishade": {"weights", "shades", "offsets", "time", "pending", "rng"},
    "batched": ROW_FIELDS,
    "hetero": ROW_FIELDS,
    "simulation": SIMULATION_FIELDS,
    "simulation-cycle": SIMULATION_FIELDS - {"buf_partners"},
    "simulation-round-robin": SIMULATION_FIELDS,
    "array": ARRAY_FIELDS,
    "array-cycle": ARRAY_FIELDS,
    "array-round-robin": ARRAY_FIELDS,
}

CLASS_NAMES = {
    "aggregate": "AggregateSimulation",
    "multishade": "MultiShadeAggregate",
    "batched": "HeterogeneousAggregateBatch",
    "hetero": "HeterogeneousAggregateBatch",
    "simulation": "Simulation",
    "simulation-cycle": "Simulation",
    "simulation-round-robin": "Simulation",
    "array": "ArraySimulation",
    "array-cycle": "ArraySimulation",
    "array-round-robin": "ArraySimulation",
}

STREAM_FIELDS = {"block", "pool", "pos", "state", "inc", "has_uint32",
                 "uinteger"}

ROW_LEAVES = [
    "weights", "ks", "dark", "light", "lighten", "times", "pending", "n",
    "streams.pool", "streams.pos", "streams.state", "streams.inc",
    "streams.has_uint32", "streams.uinteger", "rng",
]

#: Every array and dict a view hands out, by dotted path.  The uniform
#: scheduler's state is an empty dict, so only the round-robin engines
#: list ``scheduler``.
LEAVES = {
    "aggregate": ["weights", "dark", "light", "lighten", "rng"],
    "multishade": ["weights", "shades", "offsets", "rng"],
    "batched": ROW_LEAVES,
    "hetero": ROW_LEAVES,
    "simulation": ["colours", "shades", "buf_initiators", "buf_partners",
                   "weights", "rng"],
    "simulation-round-robin": ["scheduler"],
    "array": ["colours", "shades", "buf_init", "buf_partners", "buf_coins",
              "weights", "rng"],
    "array-cycle": ["colours", "shades", "buf_init", "buf_partners",
                    "buf_coins", "weights", "rng"],
    "array-round-robin": ["scheduler"],
}


def same_tree(a, b) -> bool:
    """Equal view trees: same keys, equal arrays of one dtype, equal
    scalars."""
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(same_tree(a[key], b[key]) for key in a)
        )
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    return a == b


def assert_same_view(a, b):
    assert same_tree(a.snapshot(), b.snapshot())


def change(view: dict, path: str) -> None:
    """Change the array or dict at ``path`` in place."""
    *parents, last = path.split(".")
    node = view
    for key in parents:
        node = node[key]
    leaf = node[last]
    if isinstance(leaf, dict):
        leaf.clear()
    else:
        leaf += 1


def run_in_calls(engine, total: int, calls):
    """Run ``total`` steps in ``run`` calls cycling through ``calls``."""
    done = 0
    for size in itertools.cycle(calls):
        if done >= total:
            return engine
        take = min(size, total - done)
        engine.run(take)
        done += take


@pytest.mark.parametrize(
    "engine, leaf",
    [(engine, leaf) for engine, leaves in LEAVES.items() for leaf in leaves],
)
def test_changing_a_view_leaves_the_engine_alone(engine, leaf):
    build = ENGINES[engine]
    sim = build(SEED).run(SPLIT)
    view = sim.snapshot()
    before = copy.deepcopy(view)
    change(view, leaf)
    assert not same_tree(view, before)
    assert same_tree(sim.snapshot(), before)
    twin = build(SEED).run(SPLIT)
    assert_same_view(sim.run(TOTAL - SPLIT), twin.run(TOTAL - SPLIT))


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestEveryEngine:
    def test_fields(self, engine):
        view = ENGINES[engine](SEED).run(SPLIT).snapshot()
        assert view["format"] == CKPT_FORMAT
        assert view["engine"] == CLASS_NAMES[engine]
        assert view.keys() - {"format", "engine"} == FIELDS[engine]
        if "streams" in view:
            assert view["streams"].keys() == STREAM_FIELDS

    def test_taking_views_leaves_the_run_alone(self, engine):
        build = ENGINES[engine]
        plain = build(SEED).run(TOTAL)
        observed = build(SEED)
        observed.snapshot()
        for chunk in (1, SPLIT - 1, 262, TOTAL - SPLIT - 262):
            observed.run(chunk)
            observed.snapshot()
            observed.snapshot()
        assert_same_view(observed, plain)

    def test_same_seed_same_view(self, engine):
        build = ENGINES[engine]
        assert_same_view(build(SEED).run(SPLIT), build(SEED).run(SPLIT))

    def test_seed_reaches_the_view(self, engine):
        build = ENGINES[engine]
        first = build(SEED).run(SPLIT).snapshot()
        other = build(SEED + 1).run(SPLIT).snapshot()
        assert first["rng"] != other["rng"]
        assert not same_tree(first, other)

    @pytest.mark.parametrize(
        "calls", [(1,), (7, 1, 333), (64,)],
        ids=["single-steps", "uneven", "64"],
    )
    def test_many_calls_match_one(self, engine, calls):
        build = ENGINES[engine]
        chunked = run_in_calls(build(SEED), TOTAL, calls)
        assert_same_view(chunked, build(SEED).run(TOTAL))


#: Block-buffered agent engines and the steps one draw block covers.
BUFFERED = {
    "simulation": (simulation, SIMULATION_BLOCK),
    "simulation-cycle": (ENGINES["simulation-cycle"], SIMULATION_BLOCK),
    "simulation-round-robin": (
        ENGINES["simulation-round-robin"], SIMULATION_BLOCK
    ),
    "array": (array, ARRAY_BLOCK),
    "array-cycle": (ENGINES["array-cycle"], ARRAY_BLOCK),
    "array-round-robin": (ENGINES["array-round-robin"], ARRAY_BLOCK),
}


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("engine", sorted(BUFFERED))
def test_split_at_a_block_boundary(engine, offset):
    """Split one step before, at and after the first refill, then
    cross a second one."""
    build, block = BUFFERED[engine]
    split_run = build(SEED)
    total = 2 * block + 3
    split_run.run(block + offset)
    split_run.run(total - block - offset)
    assert_same_view(split_run, build(SEED).run(total))
