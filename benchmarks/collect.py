"""Consolidate ``benchmarks/results/*.json`` into one
``BENCH_SUMMARY.json`` so the perf trajectory is tracked across PRs.

Each benchmark script writes its own timing JSON (e.g.
``e17_fused_sweep_timing.json``); CI runs them as separate jobs and
this collector merges whatever landed in the results directory into a
single artifact with a compact speedup index:

    PYTHONPATH=src python benchmarks/collect.py

With ``--trajectory PATH`` the collector additionally appends the
summary's speedup index as one entry to the committed per-PR history
(``benchmarks/BENCH_TRAJECTORY.json``) and compares it against the
newest *same-machine* entry, flagging any benchmark whose speedup
dropped by more than ``--threshold`` (default 20%).  Every entry
records a machine signature (``cpu_count`` + platform), because
speedups are not comparable across machines — a parallel-sweep
benchmark that hits 2x on a 4-core CI runner is structurally 1x on a
1-core dev box, which is noise, not a regression.  Entries without a
matching signature (or legacy entries without one at all) are kept in
the history but never used as a regression baseline.  The comparison
is *non-blocking* — regressions are printed as warnings and the exit
code stays 0 — because CI benchmark machines are noisy; the trajectory
exists so a real drift is visible across several PRs, not to gate a
single one.

The collector also reads ``repro-perfbench/v1`` result files, which
``perfbench/run.py`` writes to ``.perfbench/results``.  For every
untraced (``--trace 0``) result it indexes the end-to-end metric values
under ``perfbench`` with the run's seed and machine signature, and a
trajectory entry carries that index next to the speedups:

    python benchmarks/collect.py .perfbench/results \
        --trajectory benchmarks/BENCH_TRAJECTORY.json --label LABEL

The collector is deliberately forgiving — a missing results directory
yields an empty summary and unparsable files are recorded as errors
instead of failing the job — because benchmark jobs are non-blocking
and any subset of them may have run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUMMARY_NAME = "BENCH_SUMMARY.json"
TRAJECTORY_FORMAT = "repro-bench-trajectory/v1"
PERFBENCH_FORMAT = "repro-perfbench/v1"


def machine_signature() -> dict:
    """The comparability class of a benchmark run: core count plus a
    coarse platform label (system + architecture — deliberately not
    the kernel build, which churns without affecting speedups)."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def collect(results_dir: pathlib.Path = RESULTS_DIR) -> dict:
    """Merge every timing JSON under ``results_dir`` into one payload.

    Returns a ``repro-bench-summary/v1`` dict: the full per-benchmark
    payloads plus a ``speedups`` index of every benchmark that reports
    a ``speedup`` (and whether it met its ``target_speedup``) and a
    ``perfbench`` index of the untraced perfbench results by workload.
    """
    summary: dict = {
        "format": "repro-bench-summary/v1",
        "benchmarks": {},
        "speedups": {},
        "perfbench": {},
        "caches": {},
        "errors": {},
    }
    if not results_dir.is_dir():
        return summary
    for path in sorted(results_dir.glob("*.json")):
        if path.name == SUMMARY_NAME:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            summary["errors"][path.name] = str(error)
            continue
        summary["benchmarks"][path.stem] = payload
        if isinstance(payload, dict) and "speedup" in payload:
            entry = {"speedup": payload["speedup"]}
            if "target_speedup" in payload:
                entry["target_speedup"] = payload["target_speedup"]
                entry["meets_target"] = (
                    payload["speedup"] >= payload["target_speedup"]
                )
            summary["speedups"][path.stem] = entry
        if (
            isinstance(payload, dict)
            and payload.get("format") == PERFBENCH_FORMAT
            and not payload.get("trace")
        ):
            # Traced runs report per-layer metrics; the end-to-end ones
            # are measured with tracing off.
            summary["perfbench"][payload["workload"]] = {
                "seed": payload["seed"],
                "machine": payload["machine"],
                "metrics": {
                    name: metric["value"]
                    for name, metric in sorted(payload["metrics"].items())
                },
            }
        if isinstance(payload, dict) and isinstance(
            payload.get("cache"), dict
        ):
            # Shard-cache hit/miss counters (E19 and any benchmark
            # that exercises the result cache).
            summary["caches"][path.stem] = payload["cache"]
    return summary


def load_trajectory(path: pathlib.Path) -> dict:
    """Reload the committed trajectory, or an empty one if absent."""
    if not path.exists():
        return {"format": TRAJECTORY_FORMAT, "entries": []}
    doc = json.loads(path.read_text())
    if doc.get("format") != TRAJECTORY_FORMAT:
        raise ValueError(
            f"{path}: not a {TRAJECTORY_FORMAT} file "
            f"(format={doc.get('format')!r})"
        )
    return doc


def baseline_entry(trajectory: dict, machine: dict | None = None):
    """The newest trajectory entry recorded on ``machine`` (defaults
    to this machine), or None.

    Legacy entries without a machine signature never match — they may
    have run anywhere, so comparing against them reports cross-machine
    noise as regressions.
    """
    machine = machine or machine_signature()
    for entry in reversed(trajectory["entries"]):
        if entry.get("machine") == machine:
            return entry
    return None


def compare_with_last(
    summary: dict,
    trajectory: dict,
    threshold: float = 0.2,
    machine: dict | None = None,
) -> list[str]:
    """Speedup regressions vs the newest *same-machine* entry.

    Returns one human-readable line per benchmark whose speedup fell
    by more than ``threshold`` (fractional); new or vanished benchmarks
    are not regressions, and with no same-machine baseline in the
    trajectory nothing is compared at all.
    """
    baseline = baseline_entry(trajectory, machine)
    if baseline is None:
        return []
    previous = baseline["speedups"]
    warnings = []
    for name, entry in sorted(summary["speedups"].items()):
        if name not in previous:
            continue
        before = float(previous[name]["speedup"])
        now = float(entry["speedup"])
        if before > 0 and now < before * (1.0 - threshold):
            drop = 100.0 * (1.0 - now / before)
            warnings.append(
                f"{name}: speedup {before:.2f}x -> {now:.2f}x "
                f"(-{drop:.0f}%, threshold {threshold:.0%})"
            )
    return warnings


def append_trajectory(
    summary: dict, path: pathlib.Path, label: str,
    machine: dict | None = None,
) -> dict:
    """Append the summary's speedup and perfbench indexes as one
    trajectory entry, stamped with the machine signature it was
    measured on."""
    trajectory = load_trajectory(path)
    trajectory["entries"].append(
        {
            "label": label,
            "machine": machine or machine_signature(),
            "speedups": summary["speedups"],
            "perfbench": summary.get("perfbench", {}),
        }
    )
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return trajectory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results_dir", nargs="?", type=pathlib.Path, default=RESULTS_DIR,
        help="directory of per-benchmark timing JSONs",
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path, default=None, metavar="PATH",
        help="append this run's speedups to the committed per-PR "
             "history and warn (non-blocking) on regressions",
    )
    parser.add_argument(
        "--label", type=str, default="local",
        help="entry label for --trajectory (CI passes the commit SHA)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="fractional speedup drop that counts as a regression "
             "(default 0.2 = 20%%)",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    results_dir = args.results_dir
    summary = collect(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / SUMMARY_NAME
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"collected {len(summary['benchmarks'])} benchmark(s) -> {out}")
    for name, entry in sorted(summary["speedups"].items()):
        target = entry.get("target_speedup")
        status = (
            ""
            if target is None
            else (" (meets target)" if entry["meets_target"]
                  else f" (BELOW {target:.1f}x target)")
        )
        print(f"  {name}: {entry['speedup']:.2f}x{status}")
    for workload, entry in sorted(summary["perfbench"].items()):
        metrics = ", ".join(
            f"{name} {value:.4g}" for name, value in entry["metrics"].items()
        )
        print(f"  perfbench {workload} (seed {entry['seed']}): {metrics}")
    for name, entry in sorted(summary["caches"].items()):
        if {"hits", "misses"} <= set(entry):
            print(
                f"  {name}: cache {entry['hits']} hit(s) / "
                f"{entry['misses']} miss(es)"
            )
    for name, error in sorted(summary["errors"].items()):
        print(f"  {name}: UNREADABLE ({error})", file=sys.stderr)
    if args.trajectory is not None:
        history = load_trajectory(args.trajectory)
        if baseline_entry(history) is None and history["entries"]:
            print(
                "  no same-machine baseline in the trajectory; "
                "skipping the regression comparison "
                f"(this machine: {machine_signature()})"
            )
        regressions = compare_with_last(summary, history, args.threshold)
        for line in regressions:
            print(f"  PERF REGRESSION (non-blocking): {line}")
        trajectory = append_trajectory(summary, args.trajectory, args.label)
        print(
            f"trajectory: {len(trajectory['entries'])} entr"
            f"{'y' if len(trajectory['entries']) == 1 else 'ies'} "
            f"-> {args.trajectory}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
