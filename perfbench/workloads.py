"""The benchmark's workloads and their correctness checks.

Each workload builds its inputs from the run's seed in :meth:`setup`
(timed as set-up), makes untimed preparations in :meth:`prepare` and
:meth:`before`, runs one timed iteration in :meth:`run` and checks that
iteration's outputs in :meth:`check`, which returns
``(operations attempted, operations failed)``.  Operations are result
rows: replication rows on ``replicas``, pipeline shards elsewhere.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time

#: The E16 acceptance shape: R x n=1000 agents, 3 colours, 30k steps.
REPLICAS = {"vector": (1.0, 2.0, 3.0), "n": 1000, "steps": 30_000,
            "replications": 100}

#: The E17 acceptance sweep: 24 heterogeneous cells x R=50 rows.
SWEEP = {"rounds": 30, "replications": 50}

#: Quick-profile experiments of the ``tables`` workload, one per engine
#: family: ablations (agent ``Simulation`` and array engine), e1 and e3b
#: (scalar aggregate engine, tiny shards), e8 (Markov chain, tiny
#: shards) and e9b (multishade engine).  The value is the number of
#: pairwise interactions the experiment simulates; its seeds are pinned
#: by the quick profile, so the count is as fixed as its golden table
#: and a traced run recounts it from the engines' clocks.
TABLE_INTERACTIONS = {
    "ablations": 1_152_000,
    "e1": 24_237,
    "e3b": 8_450,
    "e8": 0,
    "e9b": 1_132_544,
}

#: Lines whose content depends on wall-clock timing (the same rule as
#: the golden-table test suite).
TIMING_LINE = re.compile(r"steps/s|seconds|elapsed")


def import_cli() -> float:
    """Import ``repro.cli`` (the whole package) and return the seconds
    it took; a no-op second import reads near zero."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return time.perf_counter() - start


class Workload:
    """One named workload.  Subclasses set the class attributes and
    per-iteration work sizes and override the hooks they need."""

    name = ""
    #: Pairwise interactions the engines simulate per iteration, from
    #: the inputs (a traced run recounts them from the engine clocks).
    interactions = 0
    #: Result rows (shards) one iteration completes.
    shards = 0
    #: False when an iteration runs in a child process, which then
    #: traces itself.
    in_process = True

    def __init__(self, root: pathlib.Path, seed: int, work: pathlib.Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.cli_import_s = 0.0

    def setup(self) -> None:
        """Import ``repro`` and build the inputs (timed as set-up)."""
        self.cli_import_s = import_cli()

    def prepare(self) -> None:
        """Untimed one-off preparation after set-up."""

    def before(self) -> None:
        """Untimed preparation before each iteration."""

    def run(self, traced: bool = False):
        raise NotImplementedError

    def check(self, result) -> tuple[int, int]:
        raise NotImplementedError

    def after(self) -> None:
        """Untimed clean-up after each iteration."""

    def absorb(self, tracer) -> None:
        """Fold a traced child process's spans into ``tracer``."""

    @property
    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that ran the workload."""
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Replicas(Workload):
    """Batched replications under the E16 shock schedule."""

    name = "replicas"
    shards = REPLICAS["replications"]
    interactions = REPLICAS["replications"] * REPLICAS["steps"]

    def setup(self) -> None:
        super().setup()
        from repro.adversary.interventions import AddAgents, AddColour
        from repro.adversary.schedule import InterventionSchedule
        from repro.core.weights import WeightTable

        n, steps = REPLICAS["n"], REPLICAS["steps"]
        self.weights = WeightTable(REPLICAS["vector"])
        # A flood of n/2 dark agents of colour 0 at T/3, then a new
        # colour (w=2, one dark agent) at 2T/3.
        self.schedule = InterventionSchedule(
            [
                (steps // 3, AddAgents(colour=0, count=n // 2, dark=True)),
                (2 * steps // 3, AddColour(weight=2.0, count=1, dark=True)),
            ]
        )
        self.mass = n + n // 2 + 1
        self.colours = self.weights.k + 1

    def run(self, traced: bool = False):
        from repro.experiments.runner import run_aggregate

        return run_aggregate(
            self.weights, REPLICAS["n"], REPLICAS["steps"],
            seed=self.seed, replications=REPLICAS["replications"],
            schedule=self.schedule, batched=True,
        )

    def check(self, record) -> tuple[int, int]:
        return self.shards, rows_failing(
            record.final_dark_counts, record.final_light_counts,
            [self.mass] * self.shards, [self.colours] * self.shards,
        )


def rows_failing(dark, light, masses, colours) -> int:
    """Rows that lost or gained agent mass, have the wrong number of
    colours, or let some colour's dark count reach 0."""
    if len(dark) != len(masses):
        return len(masses)
    failed = 0
    for row_dark, row_light, mass, k in zip(dark, light, masses, colours):
        row_dark, row_light = list(row_dark), list(row_light)
        if (
            len(row_dark) != k
            or sum(row_dark) + sum(row_light) != mass
            or min(row_dark) < 1
        ):
            failed += 1
    return failed


class FusedSweep(Workload):
    """The E17 heterogeneous sweep, fused, into a fresh shard cache (1200
    writes), then replayed from that cache (1200 reads, no engine)."""

    name = "fused_sweep"
    spec_kwargs = SWEEP

    def setup(self) -> None:
        super().setup()
        from repro.experiments.fusion import spec_fused_sweep
        from repro.experiments.pipeline import plan

        self.spec = spec_fused_sweep(**self.spec_kwargs, base_seed=self.seed)
        self.params = [shard.params for shard in plan(self.spec).shards]
        # Each iteration completes every shard twice: computed, then
        # replayed.
        self.shards = 2 * len(self.params)
        self.interactions = sum(
            int(p["rounds"]) * int(p["n"]) for p in self.params
        )

    def before(self) -> None:
        self.cache_dir = pathlib.Path(tempfile.mkdtemp(dir=self.work))

    def execute(self):
        """One fused pass of the sweep against the iteration's cache."""
        from repro.experiments.cache import ShardCache
        from repro.experiments.pipeline import execute

        return execute(self.spec, fused=True, cache=ShardCache(self.cache_dir))

    def run(self, traced: bool = False):
        return self.execute(), self.execute()

    def after(self) -> None:
        shutil.rmtree(self.cache_dir)

    def check(self, passes) -> tuple[int, int]:
        cold, warm = passes
        self.cache_stats = {
            "hits": warm.cache_stats["hits"],
            "misses": cold.cache_stats["misses"],
        }
        rows = len(self.params)
        cold_values, warm_values = cold.values(), warm.values()
        if len(cold_values) != rows:
            return self.shards, self.shards
        failed = len(cold.failed_indices()) + sum(
            # Fused values carry colour counts only: each row must keep
            # its cell's mass and every colour alive.
            len(value["counts"]) != len(params["vector"])
            or sum(value["counts"]) != int(params["n"])
            or min(value["counts"]) < 1
            for value, params in zip(cold_values, self.params)
        )
        if warm.cache_stats["misses"] or len(warm_values) != rows:
            return self.shards, failed + rows  # the replay recomputed
        return self.shards, failed + sum(
            canonical(replayed) != canonical(computed)
            for replayed, computed in zip(warm_values, cold_values)
        )


def canonical(value) -> str:
    """Byte form of one shard value, for replay identity checks."""
    return json.dumps(value, sort_keys=True)


class Tables(Workload):
    """``repro run --profile quick <experiments> --out DIR`` in a child
    process, checked against the golden tables."""

    name = "tables"
    in_process = False
    experiments = tuple(TABLE_INTERACTIONS)

    def setup(self) -> None:
        super().setup()
        # The seed fixes the order the experiments run in; their own
        # seeds are pinned by the quick profile, so every order renders
        # the golden tables.
        self.order = list(self.experiments)
        random.Random(self.seed).shuffle(self.order)
        golden = self.root / "tests" / "golden"
        self.goldens = [
            (golden / f"{name}-quick.txt").read_text() for name in self.order
        ]
        self.interactions = sum(TABLE_INTERACTIONS.values())
        self.peak_kb = 0
        self.spans = None

    def before(self) -> None:
        self.out = pathlib.Path(tempfile.mkdtemp(dir=self.work))

    def run(self, traced: bool = False):
        argv = ["run", "--profile", "quick", *self.order,
                "--out", str(self.out / "artifacts")]
        if traced:
            self.spans = self.out / "spans.npz"
            script = pathlib.Path(__file__).with_name("tables_child.py")
            command = [sys.executable, str(script), str(self.spans), *argv]
        else:
            command = [sys.executable, "-m", "repro.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.out / "stdout.txt", "wb") as stdout, \
                open(self.out / "stderr.txt", "wb") as stderr:
            child = subprocess.Popen(
                command, cwd=self.out, env=env, stdout=stdout, stderr=stderr
            )
            _, status, usage = os.wait4(child.pid, 0)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status)

    def absorb(self, tracer) -> None:
        if self.spans is not None:
            tracer.absorb(self.spans)
            self.spans = None

    def check(self, returncode) -> tuple[int, int]:
        stderr = (self.out / "stderr.txt").read_text()
        # ``repro run`` names each artifact on stderr, in run order.
        artifacts = [
            line.removeprefix("artifact: ") for line in stderr.splitlines()
            if line.startswith("artifact: ")
        ]
        if returncode != 0 or len(artifacts) != len(self.order):
            sys.stderr.write(stderr)
            return max(self.shards, 1), max(self.shards, 1)
        payloads = [json.loads(pathlib.Path(a).read_text()) for a in artifacts]
        counts = [len(payload["shards"]) for payload in payloads]
        self.shards = sum(counts)
        failed = sum(
            len((payload["faults"] or {}).get("failed", []))
            for payload in payloads
        )
        stdout = (self.out / "stdout.txt").read_text()
        return self.shards, failed + tables_failing(stdout, self.goldens, counts)

    def after(self) -> None:
        shutil.rmtree(self.out)

    @property
    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


def normalise(text: str) -> str:
    """Drop wall-clock lines, as the golden-table test suite does."""
    kept = [line for line in text.splitlines() if not TIMING_LINE.search(line)]
    return "\n".join(kept).rstrip() + "\n"


def tables_failing(stdout: str, goldens: list[str], shards: list[int]) -> int:
    """Shards of the experiments whose rendered table differs from its
    golden.  ``stdout`` holds the tables in ``goldens`` order, each
    followed by one blank line, as ``repro run`` prints them."""
    lines = normalise(stdout).splitlines()
    failed = 0
    position = 0
    for index, (golden, count) in enumerate(zip(goldens, shards)):
        want = golden.splitlines()
        got = lines[position : position + len(want)]
        position += len(want) + 1
        last = index == len(goldens) - 1
        if got != want or (last and position - 1 != len(lines)):
            failed += count
    return failed


WORKLOADS = {
    workload.name: workload
    for workload in (Replicas, FusedSweep, Tables)
}
