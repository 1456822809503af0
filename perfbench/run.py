"""The reproduction's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload replicas --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``replicas``    batched replications under the E16 shock schedule;
* ``fused_sweep`` the 24-cell E17 sweep, fused, into a fresh shard cache,
  then replayed from that cache;
* ``tables``      ``repro run --profile quick ...`` in a child process.

One run sets the workload up (timed as ``setup_s``: once here and in
fresh processes, median reported), then repeats timed iterations for
``--seconds`` seconds (at least three), checking every iteration's
outputs.  With ``--trace 0`` it reports the end-to-end metrics, measured
with tracing off; iteration times are scaled to a reference machine speed
measured around each iteration (see :func:`reference_kernel`).  With ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones (per
iteration), plus the tracing overhead; the spans are written once, at
the end, to ``.perfbench/traces/``.

Every run also writes its full result, stamped with the machine
signature, NumPy version, array backend and thread-pool settings, to
``.perfbench/results/perfbench-<workload>[-traced].json``;
``python benchmarks/collect.py .perfbench/results`` consolidates them.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: BLAS/OpenMP thread pools, pinned to one thread before NumPy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
#: Fewest timed iterations of a run, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Fewest untraced and fewest traced iterations of a traced run.
MIN_TRACED = 2
#: Fresh processes that repeat the set-up, besides the run's own.
SETUP_PROBES = 2
#: Seconds :func:`reference_kernel` takes on an idle core of the 2-core
#: x86-64 machine the benchmark was tuned on.
REFERENCE_S = 0.030
#: Kernel runs before and after each untraced iteration.
REFERENCE_REPEATS = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "interactions_per_s": "1/s",
    "shards_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def machine_signature() -> dict:
    """The comparability class of a run, as ``benchmarks/collect.py``
    stamps trajectory entries: core count plus system-architecture."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reference_kernel() -> float:
    """Seconds one fixed piece of work takes right now: an interpreter
    loop over small NumPy calls, the mix of the engines' event loops.

    On a shared machine the speed of a core drifts by about 20% over
    minutes as other tenants load it.  Each untraced iteration is scaled
    by :data:`REFERENCE_S` over the kernel's mean time around it, which
    cancels most of that drift; the raw times are reported too.
    """
    import numpy as np

    start = time.perf_counter()
    values = np.arange(64, dtype=np.float64)
    total = 0.0
    for i in range(20_000):
        total += float(values[i % 7 : i % 7 + 32].sum()) + (i * 3) % 11
    return time.perf_counter() - start


def reference_samples() -> list[float]:
    return [reference_kernel() for _ in range(REFERENCE_REPEATS)]


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def measure_setup(workload) -> list[float]:
    """Set-up seconds of this process and of :data:`SETUP_PROBES` fresh
    ones (each imports ``repro`` and builds the same inputs)."""
    start = time.perf_counter()
    workload.setup()
    samples = [time.perf_counter() - start]
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--workload", workload.name, "--seed", str(workload.seed),
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


class Run:
    """Timed iterations of one workload, with their checks."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.untraced: list[float] = []
        #: Untraced times scaled to the reference machine speed.
        self.scaled: list[float] = []
        self.traced: list[float] = []
        self.attempted = 0
        self.failed = 0

    def iterate(self, traced: bool) -> None:
        workload, tracer = self.workload, self.tracer
        workload.before()
        reference = [] if traced else reference_samples()
        try:
            if traced and workload.in_process:
                tracer.install()
                try:
                    start = time.perf_counter()
                    result = tracer.span(workload.run)
                    elapsed = time.perf_counter() - start
                finally:
                    tracer.uninstall()
                tracer.settle()
            else:
                start = time.perf_counter()
                result = workload.run(traced=traced)
                elapsed = time.perf_counter() - start
                if traced:
                    workload.absorb(tracer)
                else:
                    reference += reference_samples()
            attempted, failed = workload.check(result)
        except Exception:
            # One broken iteration is a measured failure, not the end of
            # the run.
            traceback.print_exc()
            attempted = failed = max(workload.shards, 1)
            elapsed = None
        finally:
            workload.after()
        self.attempted += attempted
        self.failed += failed
        if elapsed is None:
            return
        if traced:
            self.traced.append(elapsed)
        else:
            self.untraced.append(elapsed)
            self.scaled.append(
                elapsed * REFERENCE_S / statistics.fmean(reference)
            )

    def loop(self, seconds: float) -> None:
        """Iterate for ``seconds``; a traced run alternates untraced and
        traced iterations."""
        least = 2 * MIN_TRACED if self.tracer else MIN_ITERATIONS
        start = time.perf_counter()
        count = 0
        while count < least or time.perf_counter() - start < seconds:
            self.iterate(traced=self.tracer is not None and count % 2 == 1)
            count += 1


def end_to_end(run: Run, setup: list[float]) -> dict:
    workload = run.workload
    wall = statistics.median(run.scaled)
    return {
        "wall_s": wall,
        "interactions_per_s": workload.interactions / wall,
        "shards_per_s": workload.shards / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": workload.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-iteration means of every layer metric, with units."""
    from spans import COUNTERS, LAYERS, ROOT as ROOT_SPAN

    tracer = run.tracer
    iterations = len(run.traced)
    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    engine_s = 0.0
    for layer in LAYERS:
        entries, seconds = totals[layer.name]
        metrics[layer.count_metric] = (entries / iterations, "count")
        metrics[layer.time_metric] = (seconds / iterations, "s")
        if layer.name.startswith("engine."):
            engine_s += seconds
    for name in COUNTERS:
        unit = "bytes" if "bytes" in name else "count"
        metrics[name] = (tracer.counters[name] / iterations, unit)
    gets = totals["cache.get"][0]
    metrics["cache.hit_ratio"] = (
        tracer.counters["cache.hits"] / gets if gets else 0.0, "ratio"
    )
    metrics["cli.import_s"] = (statistics.fmean(tracer.imports), "s")
    traced_wall = statistics.median(run.traced)
    untraced_wall = statistics.median(run.untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.spans"] = (tracer.spans / iterations, "count")
    metrics["trace.unattributed_s"] = (totals[ROOT_SPAN][1] / iterations, "s")
    metrics["trace.engine_share"] = (engine_s / sum(run.traced), "ratio")
    return metrics


def stamp() -> dict:
    import numpy

    from repro.engine.backend import resolve_backend

    return {
        "machine": machine_signature(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": resolve_backend().name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def bench(args, work: pathlib.Path) -> int:
    workload = WORKLOADS[args.workload](ROOT, args.seed, work)
    setup = measure_setup(workload)
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    workload.prepare()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        if workload.in_process:
            tracer.imports.append(workload.cli_import_s)
    run = Run(workload, tracer)
    run.loop(args.seconds)
    if not run.untraced or (tracer and not run.traced):
        print("no iteration completed", file=sys.stderr)
        return 1
    attempted, failed = run.attempted, run.failed
    if tracer is not None:
        # The engines' own clocks must agree with the interactions the
        # workload's inputs call for.
        counted = tracer.counters["engine.interactions"]
        attempted += 1
        if counted != workload.interactions * len(run.traced):
            failed += 1
            print(f"engines simulated {counted} interactions, expected "
                  f"{workload.interactions} per traced iteration",
                  file=sys.stderr)
        metrics = per_layer(run)
    else:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(run, setup).items()
        }
    times = {"raw_wall_s": run.untraced, "wall_s": run.scaled}
    payload = {
        "format": "repro-perfbench/v1",
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **stamp(),
        "iterations": {"untraced": len(run.untraced),
                       "traced": len(run.traced)},
        **{
            name: dict(zip(("q1", "median", "q3"), quartiles(samples)),
                       samples=samples)
            for name, samples in times.items()
        },
        "setup_s": {"median": statistics.median(setup), "samples": setup},
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate(attempted, failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if getattr(workload, "cache_stats", None):
        payload["cache"] = workload.cache_stats
    results = OUTPUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-traced" if args.trace else ""
    result_path = results / f"perfbench-{workload.name}{suffix}.json"
    result_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        traces = OUTPUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.save(traces / f"{workload.name}-seed{args.seed}.npz")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.untraced)} untraced + {len(run.traced)} traced "
          f"iterations")
    for name, samples in times.items():
        q1, median, q3 = quartiles(samples)
        print(f"  {name} median {median:.4f} s (q1 {q1:.4f}, q3 {q3:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  error_rate {error_rate(attempted, failed):.6g} "
          f"({failed} failed / {attempted} attempted)")
    print(f"  result -> {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": payload["metrics"],
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        start = time.perf_counter()
        WORKLOADS[args.workload](ROOT, args.seed, None).setup()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    (OUTPUT / "work").mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=OUTPUT / "work"))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
