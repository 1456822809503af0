"""Command-line interface: run any reproduction experiment.

Examples::

    repro list
    repro run e2 --quick
    repro run e1 e2 --profile quick --jobs 4
    repro run e3 e4 e9 --profile quick --fused
    repro run e2 e3b --profile quick --cache --cache-dir .repro-cache
    repro run --profile quick --out results
    repro demo --n 2000 --weights 1,2,3 --rounds 2000
    repro demo --n 1000 --replications 100 --batched
    repro demo --n 10000 --engine array
    repro demo --n 1000 --replications 100 \\
        --schedule "500000:agents:0:500,1000000:colour:2.0:1"
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from .core.properties import assess_goodness
from .core.weights import WeightTable
from .experiments import REGISTRY, run_aggregate
from .experiments.export import save_plan, save_requeue, table_to_json
from .experiments.pipeline import execute
from .experiments.report import format_table

# Back-compat view of the per-experiment profiles that used to be
# hardcoded here; the registry entries own them now.
QUICK_OVERRIDES: dict[str, dict] = {
    name: dict(definition.profiles["quick"])
    for name, definition in REGISTRY.items()
    if "quick" in definition.profiles
}


def _parse_weights(text: str) -> WeightTable:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
        return WeightTable(values)
    except ValueError as error:
        raise SystemExit(f"invalid --weights {text!r}: {error}") from error


def _parse_schedule(text: str | None):
    """Parse a compact adversarial schedule specification.

    Comma-separated entries, each one of::

        TIME:agents:COLOUR:COUNT[:light]    inject agents of a colour
        TIME:colour:WEIGHT:COUNT[:light]    introduce a new colour
        TIME:recolour:SOURCE:TARGET         repaint source as target

    Agents arrive dark unless the trailing ``light`` flag is given.
    Returns None for empty input.
    """
    if not text or not text.strip():
        return None
    from .adversary.interventions import (
        AddAgents,
        AddColour,
        RecolourColour,
    )
    from .adversary.schedule import InterventionSchedule

    entries = []
    for raw in text.split(","):
        parts = [part.strip() for part in raw.split(":")]
        try:
            time_step = int(parts[0])
            if time_step < 0:
                raise ValueError("TIME must be non-negative")
            kind = parts[1]
            if kind == "agents":
                dark = _schedule_shade(parts, 4)
                event = AddAgents(
                    colour=int(parts[2]),
                    count=_schedule_count(parts[3]),
                    dark=dark,
                )
            elif kind == "colour":
                dark = _schedule_shade(parts, 4)
                event = AddColour(
                    weight=float(parts[2]),
                    count=_schedule_count(parts[3]),
                    dark=dark,
                )
            elif kind == "recolour":
                if len(parts) != 4:
                    raise ValueError("recolour takes SOURCE:TARGET")
                event = RecolourColour(
                    source=int(parts[2]), target=int(parts[3])
                )
            else:
                raise ValueError(
                    f"unknown intervention {kind!r} "
                    "(use agents, colour or recolour)"
                )
        except (IndexError, ValueError) as error:
            raise SystemExit(
                f"invalid --schedule entry {raw.strip()!r}: {error}"
            ) from error
        entries.append((time_step, event))
    return InterventionSchedule(entries)


def _schedule_count(text: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError("COUNT must be non-negative")
    return count


def _schedule_shade(parts: list[str], base: int) -> bool:
    """Trailing shade flag of an agents/colour entry (default dark)."""
    if len(parts) == base:
        return True
    if len(parts) == base + 1 and parts[base] in ("dark", "light"):
        return parts[base] == "dark"
    raise ValueError("expected COLOUR:COUNT or WEIGHT:COUNT [:dark|:light]")


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [
            name,
            "/".join(sorted(definition.profiles)) or "-",
            definition.description,
        ]
        for name, definition in sorted(REGISTRY.items())
    ]
    print(format_table(["experiment", "profiles", "description"], rows))
    return 0


def _resolve_profile(args: argparse.Namespace) -> str | None:
    """Profile name from --profile/--quick; None on a conflict."""
    if args.quick and args.profile not in (None, "quick"):
        return None
    return args.profile or ("quick" if args.quick else "full")


def _retry_policy(args: argparse.Namespace):
    """RetryPolicy from --retries/--shard-timeout/--retry-backoff, or
    None when no retry flag was given."""
    if (
        args.retries is None
        and args.shard_timeout is None
        and args.retry_backoff is None
    ):
        return None
    from .experiments.faults import RetryPolicy

    return RetryPolicy(
        max_attempts=args.retries if args.retries is not None else 1,
        timeout_s=args.shard_timeout,
        backoff_s=(
            args.retry_backoff if args.retry_backoff is not None else 0.0
        ),
    )


def _print_fault_summary(report: dict) -> None:
    """One stderr line per noteworthy fault-tolerance event."""
    retried = sum(
        1
        for entry in report.get("shards", {}).values()
        if entry["attempts"] > 1 and entry["ok"]
    )
    parts = [
        f"faults: {report['completed']}/{report['total']} shard(s) "
        "completed"
    ]
    if retried:
        parts.append(f"{retried} recovered by retry")
    if report.get("degraded_groups"):
        parts.append(
            f"{len(report['degraded_groups'])} fused group(s) degraded "
            "to per-shard execution"
        )
    if report.get("failed"):
        parts.append(
            f"failed shards: {', '.join(map(str, report['failed']))}"
        )
    print("; ".join(parts), file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args)
    if profile is None:
        print(
            f"--quick conflicts with --profile {args.profile}",
            file=sys.stderr,
        )
        return 2
    names = args.experiments or sorted(REGISTRY)
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        retry = _retry_policy(args)
    except ValueError as error:
        print(f"invalid retry policy: {error}", file=sys.stderr)
        return 2
    # --cache-dir implies --cache; an explicit --no-cache always wins.
    cache_enabled = args.cache is True or (
        args.cache is None and args.cache_dir is not None
    )
    cache_dir = args.cache_dir or ".repro-cache"
    if args.max_failures is not None and args.max_failures < 0:
        print("--max-failures must be >= 0", file=sys.stderr)
        return 2
    shard_cache = None
    if cache_enabled:
        from .experiments.cache import ShardCache

        shard_cache = ShardCache(cache_dir)
    for name in names:
        definition = REGISTRY[name]
        if profile not in definition.profiles:
            print(
                f"experiment {name!r} has no {profile!r} profile "
                f"(available: {', '.join(sorted(definition.profiles))})",
                file=sys.stderr,
            )
            return 2
        kwargs = dict(definition.profiles[profile])
        if definition.spec is not None:
            spec = definition.spec(**kwargs)
            target = spec
            fault_plan = None
            if args.inject_faults:
                # The fault plan draws probabilistic targets from the
                # spec's own seed machinery, so it needs the expanded
                # shard count up front.
                from .experiments.faults import FaultPlan
                from .experiments.pipeline import plan as expand_plan

                target = expand_plan(spec)
                try:
                    fault_plan = FaultPlan.from_spec(
                        args.inject_faults,
                        shards=len(target.shards),
                        base_seed=spec.base_seed,
                    )
                except ValueError as error:
                    print(
                        f"invalid --inject-faults: {error}",
                        file=sys.stderr,
                    )
                    return 2
            result = execute(
                target, jobs=args.jobs,
                fused=args.fused, cache=shard_cache,
                retry=retry, faults=fault_plan,
                max_failures=args.max_failures,
            )
            if result.fault_report and result.fault_report.get("failed"):
                # Partial run: some cells are missing replications, so
                # the spec's table builder may legitimately refuse —
                # the artifact/requeue file still captures everything.
                try:
                    table = result.table()
                except Exception as error:
                    table = None
                    print(
                        f"note: partial results ({name}); table not "
                        f"rendered: {error}",
                        file=sys.stderr,
                    )
            else:
                table = result.table()
            if result.cache_stats is not None:
                stats = result.cache_stats
                print(
                    f"cache: {stats['hits']} hit(s), "
                    f"{stats['misses']} miss(es) ({stats['dir']})",
                    file=sys.stderr,
                )
            if result.fault_report is not None:
                _print_fault_summary(result.fault_report)
                requeue_dir = args.out if args.out is not None else "."
                requeue_path = save_requeue(
                    result, requeue_dir, profile=profile
                )
                if requeue_path is not None:
                    print(f"requeue file: {requeue_path}", file=sys.stderr)
        else:
            ignored = [
                flag
                for flag, given in (
                    ("--jobs", args.jobs is not None and args.jobs > 1),
                    ("--fused", args.fused),
                    ("--cache", cache_enabled),
                    ("--inject-faults", bool(args.inject_faults)),
                    ("--max-failures", args.max_failures is not None),
                    ("--retries", retry is not None),
                )
                if given
            ]
            if ignored:
                print(
                    f"note: {name} runs outside the pipeline; "
                    f"{'/'.join(ignored)} has no effect on it",
                    file=sys.stderr,
                )
            result = None
            table = definition.run(**kwargs)
        if table is not None:
            print(table.render())
            print()
        if args.out is not None:
            directory = pathlib.Path(args.out)
            if result is not None:
                path = save_plan(result, table, directory, profile=profile)
            else:
                # Non-pipeline experiment: persist the table JSON under
                # the same profile-suffixed naming as plan artifacts.
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / f"{name}-{profile}.json"
                path.write_text(table_to_json(table) + "\n")
            print(f"artifact: {path}", file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    schedule = _parse_schedule(args.schedule)
    steps = args.rounds * args.n
    if args.replications > 1:
        return _demo_replicated(args, weights, steps, schedule)
    if args.engine == "aggregate":
        record = run_aggregate(
            weights, args.n, steps, start=args.start, seed=args.seed,
            schedule=schedule,
        )
    else:
        from .experiments.runner import run_diversification_agent

        record = run_diversification_agent(
            weights, args.n, steps,
            start=args.start, seed=args.seed, engine=args.engine,
            schedule=schedule,
        )
    # A schedule may have widened the colour set; the record carries
    # the run's own (possibly grown) table.
    weights = record.weights
    tail = max(1, len(record.times) // 4)
    window = record.colour_counts[-tail:, : weights.k]
    report = assess_goodness(window, weights)
    final = record.final_colour_counts[: weights.k]
    shares = final / final.sum()
    rows = [
        [i, weights.weight(i), int(final[i]), float(shares[i]),
         float(weights.fair_shares()[i])]
        for i in range(weights.k)
    ]
    print(format_table(
        ["colour", "weight", "final count", "share", "fair share"], rows,
        title=f"Diversification demo: n={args.n}, steps={steps}",
    ))
    print(
        f"diversity error {report.diversity_error:.4f} "
        f"(bound {report.diversity_bound:.4f}) -> "
        f"diverse={report.diverse}, sustainable={report.sustainable}"
    )
    return 0


def _demo_replicated(
    args, weights: WeightTable, steps: int, schedule=None
) -> int:
    """Replicated demo: R runs through the (batched) replication path."""
    if args.engine == "aggregate":
        batch = run_aggregate(
            weights, args.n, steps,
            start=args.start,
            seed=args.seed,
            replications=args.replications,
            batched=args.batched,
            schedule=schedule,
        )
        counts = batch.final_colour_counts
        weights = batch.weights  # widened when the schedule adds colours
        engine = "aggregate/" + ("batched" if batch.batched else "scalar")
    else:
        from .experiments.replication import replicate_colour_counts

        counts = replicate_colour_counts(
            weights, args.n, steps,
            replications=args.replications,
            start=args.start,
            base_seed=args.seed,
            batched=args.batched,
            engine=args.engine,
            schedule=schedule,
        )
        engine = f"agent/{args.engine}"
        if counts.shape[1] > weights.k:
            print(
                f"note: the schedule added "
                f"{counts.shape[1] - weights.k} colour(s); shares are "
                "shown for the original colours",
                file=sys.stderr,
            )
    finals = counts.astype(float)
    shares = finals / finals.sum(axis=1, keepdims=True)
    fair = weights.fair_shares()
    rows = [
        [i, weights.weight(i),
         float(finals[:, i].mean()), float(finals[:, i].std()),
         float(shares[:, i].mean()), float(fair[i])]
        for i in range(weights.k)
    ]
    print(format_table(
        ["colour", "weight", "mean count", "std", "mean share",
         "fair share"],
        rows,
        title=(
            f"Diversification demo: n={args.n}, steps={steps}, "
            f"replications={args.replications} ({engine} engine)"
        ),
    ))
    report = assess_goodness(counts[:, : weights.k], weights)
    print(
        f"diversity error {report.diversity_error:.4f} "
        f"(bound {report.diversity_bound:.4f}) -> "
        f"diverse={report.diverse}, sustainable={report.sustainable}"
    )
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    from .analysis.potentials import phi_plateau, sigma_plateau
    from .experiments.phases import potential_series
    from .experiments.report import format_series

    weights = _parse_weights(args.weights)
    steps = args.rounds * args.n
    record = run_aggregate(
        weights, args.n, steps, start=args.start, seed=args.seed,
        record_interval=max(1, steps // 256),
    )
    series = potential_series(record)
    times = series["times"].tolist()
    print(format_series(
        f"phi(t): dark imbalance (plateau bound "
        f"{phi_plateau(args.n, weights):.3g})",
        times, series["phi"].tolist(),
    ))
    print()
    print(format_series(
        "psi(t): light imbalance", times, series["psi"].tolist()
    ))
    print()
    print(format_series(
        f"sigma^2(t): dark/light mass split (plateau bound "
        f"{sigma_plateau(args.n):.3g})",
        times, series["sigma_sq"].tolist(),
    ))
    return 0


def _parse_selectors(values: list[str] | None) -> list[str]:
    """Flatten repeatable, comma-separated selector options."""
    out: list[str] = []
    for value in values or []:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from .experiments.cache import verify_cache

    report = verify_cache(args.cache_dir, quarantine=args.quarantine)
    print(
        f"cache {report['dir']}: {report['scanned']} entr"
        f"{'y' if report['scanned'] == 1 else 'ies'} scanned, "
        f"{report['ok']} ok, {len(report['bad'])} bad"
        + (
            f", {report['quarantined']} quarantined"
            if args.quarantine
            else ""
        )
    )
    for entry in report["bad"]:
        line = f"  bad: {entry['path']} ({entry['reason']})"
        if "quarantined_to" in entry:
            line += f" -> {entry['quarantined_to']}"
        print(line)
    return 1 if report["bad"] else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import render, run_lint

    try:
        findings = run_lint(
            args.paths or None,
            select=_parse_selectors(args.select),
            ignore=_parse_selectors(args.ignore),
        )
    except (ValueError, FileNotFoundError) as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    output = render(findings, args.format)
    if output:
        print(output)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Diversity, Fairness, and Sustainability in "
            "Population Protocols' (PODC 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run experiments and print tables")
    p_run.add_argument(
        "experiments", nargs="*",
        help="experiment ids (default: all)",
    )
    p_run.add_argument(
        "--profile", type=str, default=None,
        help="named parameter profile from the registry "
             "(default: 'full'; see `repro list`)",
    )
    p_run.add_argument(
        "--quick", action="store_true",
        help="smaller parameters for a fast pass "
             "(alias for --profile quick)",
    )
    p_run.add_argument(
        "--jobs", type=int, default=None,
        help="run pipeline shards across N worker processes "
             "(default: serial; results are identical either way)",
    )
    p_run.add_argument(
        "--fused", action="store_true",
        help="mega-batch compatible shards into one vectorised engine "
             "(heterogeneous per-row weights/n/horizons); shards "
             "without a fused implementation fall back to the "
             "per-shard path (honouring --jobs).  Fused results match "
             "the per-shard path in distribution (per-cell "
             "KS-equivalent), not bit for bit",
    )
    p_run.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="consult the content-addressed shard result cache before "
             "computing and store each shard as soon as it finishes: "
             "warm and overlapping sweeps only compute new cells, and "
             "rerunning an interrupted or failed run with --cache "
             "resumes it, computing only the unfinished shards.  Keys "
             "cover the measurement source, the repro code version, "
             "the backend dtype table, the shard params and the "
             "resolved seed, so any code or dtype change recomputes "
             "instead of replaying.  --no-cache forces a full recompute",
    )
    p_run.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="directory of the shard result cache (default: "
             ".repro-cache/; implies --cache)",
    )
    p_run.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="persist a JSON artifact per experiment (spec + per-shard "
             "results + timings) under this directory, e.g. results/",
    )
    p_run.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry each failed shard up to N total attempts from the "
             "same (params, seed), so recovered runs stay bit-identical "
             "to clean ones",
    )
    p_run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="per-shard deadline in seconds on the process-pool path: "
             "a shard still running at its deadline has its worker "
             "killed and is requeued (counts as one attempt)",
    )
    p_run.add_argument(
        "--retry-backoff", type=float, default=None, metavar="S",
        help="delay before a shard's first retry, doubling per further "
             "attempt (default: retry immediately)",
    )
    p_run.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="tolerate up to N permanently failed shards: healthy "
             "shards complete, the partial table and a "
             "<experiment>-<profile>.requeue.json file are written, "
             "and the fault report lands in the --out artifact "
             "(default: fail fast on the first ShardError)",
    )
    p_run.add_argument(
        "--inject-faults", type=str, default=None, metavar="SPEC",
        help="deterministic fault injection for drills and tests: "
             "comma-separated 'KIND:TARGET[:OPT...]' entries with KIND "
             "one of raise/hang/crash/corrupt/fuse-raise/tear-cache, "
             "TARGET 'iIDX' (exact shards, e.g. i0 or "
             "'i1|3|5') or 'pPROB' (each shard independently with "
             "probability PROB, drawn from the spec's own seed), and "
             "options 'attempts=N' (fault fires on the first N "
             "attempts; default 1 = transient) and 'seconds=S' (hang "
             "duration), e.g. 'raise:p0.2:attempts=1,crash:i3'",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cache = sub.add_parser(
        "cache", help="inspect and maintain the shard result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_verify = cache_sub.add_parser(
        "verify",
        help="scan a cache directory and report corrupt entries",
        description=(
            "Walks every content-addressed entry of a shard cache "
            "directory, validating JSON, the repro-shard-cache/v1 "
            "format marker, the stored key against the filename and "
            "the value payload.  Exits 1 when bad entries are found, "
            "0 on a clean cache."
        ),
    )
    p_cache_verify.add_argument(
        "--cache-dir", type=str, default=".repro-cache", metavar="DIR",
        help="cache directory to scan (default: .repro-cache/)",
    )
    p_cache_verify.add_argument(
        "--quarantine", action="store_true",
        help="move bad entries to <dir>/quarantine/ instead of only "
             "reporting them",
    )
    p_cache_verify.set_defaults(func=_cmd_cache_verify)

    p_demo = sub.add_parser(
        "demo", help="run one Diversification instance and report goodness"
    )
    p_demo.add_argument("--n", type=int, default=1000)
    p_demo.add_argument("--weights", type=str, default="1,2,3")
    p_demo.add_argument("--rounds", type=int, default=2000,
                        help="parallel rounds (steps = rounds * n)")
    p_demo.add_argument("--start", type=str, default="worst")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--replications", type=int, default=1,
        help="independent repetitions; > 1 reports mean/std over runs",
    )
    p_demo.add_argument(
        "--batched", action=argparse.BooleanOptionalAction, default=True,
        help="fuse replications into the vectorised batched engine "
             "(--no-batched loops scalar engines instead)",
    )
    p_demo.add_argument(
        "--engine", choices=("aggregate", "scalar", "array"),
        default="aggregate",
        help="simulation engine: 'aggregate' tracks colour counts only "
             "(fastest; complete graph), 'array' runs the vectorised "
             "agent-level engine (used automatically by run_agent for "
             "kernelised protocols on complete/CSR graphs), 'scalar' "
             "forces the per-step reference engine; every engine — "
             "including the batched replicated paths — accepts "
             "--schedule",
    )
    p_demo.add_argument(
        "--schedule", type=str, default=None, metavar="SPEC",
        help="adversarial intervention schedule, comma-separated "
             "entries 'T:agents:COLOUR:COUNT[:light]', "
             "'T:colour:WEIGHT:COUNT[:light]' or "
             "'T:recolour:SRC:DST', e.g. "
             "'500000:agents:0:500,1000000:colour:2.0:1'",
    )
    p_demo.set_defaults(func=_cmd_demo)

    p_series = sub.add_parser(
        "series",
        help="run once and chart the phi/psi/sigma potentials (Fig. 1)",
    )
    p_series.add_argument("--n", type=int, default=1000)
    p_series.add_argument("--weights", type=str, default="1,2,3")
    p_series.add_argument("--rounds", type=int, default=2000)
    p_series.add_argument("--start", type=str, default="worst")
    p_series.add_argument("--seed", type=int, default=0)
    p_series.set_defaults(func=_cmd_series)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's AST-based invariant checks (repro.lint)",
        description=(
            "Static checks for the repo's reproducibility invariants: "
            "RL1 backend seam, RL2 determinism, RL3 checkpoint "
            "completeness (repro-ckpt/v1), RL4 kernel purity, RL5 "
            "fingerprint hygiene.  Exits 1 when findings remain, 0 on "
            "a clean run, 2 on a usage error.  Waive a finding inline "
            "with '# repro-lint: disable=CODE -- justification'."
        ),
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed "
             "repro package)",
    )
    p_lint.add_argument(
        "--select", action="append", default=None, metavar="CODES",
        help="only report these rule codes (comma-separated, "
             "repeatable; prefixes select families: RL3 = RL301+RL302)",
    )
    p_lint.add_argument(
        "--ignore", action="append", default=None, metavar="CODES",
        help="drop these rule codes (same syntax as --select; ignore "
             "wins on overlap)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format: human-readable lines, a JSON document, "
             "or GitHub workflow ::error annotations",
    )
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an
        # error from the user's point of view.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
