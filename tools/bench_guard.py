#!/usr/bin/env python3
"""Benchmark guards: t7/t10 regressions and the perfbench record.

Raw benchmark means are useless across CI runners of different speeds,
so every guarded mean is *normalized* by the same run's reference case
— the empty-desktop t7 motion sweep (``test_t7_motion_sweep[0]``),
a pure interpreter+dispatch measurement that scales with machine speed
but not with any of the code paths the guards watch.  The guard then
compares those machine-free ratios against a committed baseline and
fails when one regresses by more than the tolerance (default 25%).

Four modes::

    # Distill a pytest-benchmark JSON into the nightly artifact.
    python tools/bench_guard.py extract benchmark-results.json \
        -o BENCH_t7_t10.json

    # Compare a fresh run against the committed baseline.
    python tools/bench_guard.py guard benchmark-results.json \
        --baseline benchmarks/BASELINE_t7_t10.json

    # Append today's distilled run to the rolling trajectory the
    # nightly job accumulates across runs (date-keyed; reruns on the
    # same day overwrite that day's entry).
    python tools/bench_guard.py trajectory benchmark-results.json \
        --trajectory BENCH_trajectory.json --date 2026-08-08

    # Turn alternating parent/change perfbench runs into a row of the
    # committed record BENCH_perfbench.json (per side, one line per
    # seed: the final line of run.py --workload all; see cmd_record).
    python tools/bench_guard.py record --parent-runs parent.jsonl \
        --change-runs change.jsonl --seeds 2201-2210 \
        --claim stack_churn:void_p50_us --change "what changed" \
        --parent-commit 0fa768f --append BENCH_perfbench.json

    # Without --claim, ``record`` judges a change that claims no gain:
    # every metric against its bound, and every run's correctness.  It
    # prints the same table and appends nothing.

Exit codes: 0 OK, 1 regression past tolerance (for ``record``: the
claimed metric did not win, or another metric got worse past its
bound), 2 malformed input (for ``record``: also --append without
--claim),
3 missing baseline file (distinct, so CI can tell "perf regressed"
from "nobody committed a baseline yet").

Refresh the baseline after an intentional perf change::

    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json=benchmark-results.json
    python tools/bench_guard.py extract benchmark-results.json \
        -o benchmarks/BASELINE_t7_t10.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

GROUPS = ("t7", "t10")
REFERENCE = "test_t7_motion_sweep[0]"
DEFAULT_TOLERANCE = 0.25

#: Exit codes (see module docstring).
EXIT_REGRESSION = 1
EXIT_BAD_INPUT = 2
EXIT_NO_BASELINE = 3


class GuardError(Exception):
    """A guard failure with a specific process exit code."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def load_means(results_path: str) -> Dict[str, float]:
    """name -> mean seconds for every t7/t10 benchmark in a
    pytest-benchmark JSON."""
    try:
        with open(results_path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise GuardError(
            f"error: results file {results_path} does not exist",
            EXIT_BAD_INPUT,
        ) from None
    except json.JSONDecodeError as err:
        raise GuardError(
            f"error: {results_path} is not valid JSON: {err}",
            EXIT_BAD_INPUT,
        ) from None
    means = {}
    for bench in data.get("benchmarks", []):
        if bench.get("group") in GROUPS:
            means[bench["name"]] = bench["stats"]["mean"]
    if not means:
        raise GuardError(
            f"error: no t7/t10 benchmarks found in {results_path}",
            EXIT_BAD_INPUT,
        )
    if REFERENCE not in means:
        raise GuardError(
            f"error: reference benchmark {REFERENCE!r} missing "
            f"from {results_path}",
            EXIT_BAD_INPUT,
        )
    return means


def distill(means: Dict[str, float]) -> dict:
    reference = means[REFERENCE]
    return {
        "reference": REFERENCE,
        "reference_mean": reference,
        "means": dict(sorted(means.items())),
        "ratios": {
            name: mean / reference
            for name, mean in sorted(means.items())
            if name != REFERENCE
        },
    }


def cmd_extract(args: argparse.Namespace) -> int:
    summary = distill(load_means(args.results))
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(summary['means'])} benchmark means to {args.output}")
    return 0


def cmd_guard(args: argparse.Namespace) -> int:
    current = distill(load_means(args.results))
    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        # Distinct exit code: "no baseline committed" is a setup
        # problem, not a perf regression, and CI treats them
        # differently (the refresh recipe is in the module docstring).
        raise GuardError(
            f"error: baseline {args.baseline} does not exist — "
            f"commit one with: python tools/bench_guard.py extract "
            f"<results.json> -o {args.baseline}",
            EXIT_NO_BASELINE,
        ) from None
    except json.JSONDecodeError as err:
        raise GuardError(
            f"error: baseline {args.baseline} is not valid JSON: {err}",
            EXIT_BAD_INPUT,
        ) from None
    if baseline.get("reference") != REFERENCE:
        raise GuardError(
            f"error: baseline {args.baseline} was built against "
            f"{baseline.get('reference')!r}, expected {REFERENCE!r}",
            EXIT_BAD_INPUT,
        )

    failures = []
    print(f"{'benchmark':52s} {'base':>8s} {'now':>8s} {'delta':>8s}")
    for name, base_ratio in sorted(baseline["ratios"].items()):
        now_ratio = current["ratios"].get(name)
        if now_ratio is None:
            failures.append(f"{name}: missing from current run")
            print(f"{name:52s} {base_ratio:8.3f} {'--':>8s}  MISSING")
            continue
        delta = now_ratio / base_ratio - 1.0
        verdict = ""
        if delta > args.tolerance:
            verdict = "  REGRESSED"
            failures.append(
                f"{name}: {delta:+.1%} vs baseline "
                f"(ratio {base_ratio:.3f} -> {now_ratio:.3f})"
            )
        print(f"{name:52s} {base_ratio:8.3f} {now_ratio:8.3f} "
              f"{delta:+7.1%}{verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return EXIT_REGRESSION
    print(f"\nOK: all {len(baseline['ratios'])} guarded benchmarks within "
          f"{args.tolerance:.0%} of baseline")
    return 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    """Fold today's distilled run into the rolling date-keyed
    trajectory file the nightly job accumulates (and uploads)."""
    if args.keep < 1:
        raise GuardError(
            f"error: --keep must be at least 1 (got {args.keep}): a"
            " rolling window that retains nothing would erase the"
            " whole trajectory",
            EXIT_BAD_INPUT,
        )
    summary = distill(load_means(args.results))
    try:
        with open(args.trajectory) as fh:
            trajectory = json.load(fh)
    except FileNotFoundError:
        trajectory = {"schema": "swm-bench-trajectory/1", "runs": {}}
    except json.JSONDecodeError as err:
        raise GuardError(
            f"error: trajectory {args.trajectory} is not valid JSON: "
            f"{err} (delete it to start a fresh trajectory)",
            EXIT_BAD_INPUT,
        ) from None
    runs = trajectory.setdefault("runs", {})
    runs[args.date] = {
        "reference_mean": summary["reference_mean"],
        "ratios": summary["ratios"],
        "run_id": args.run_id or None,
    }
    # Rolling window: keep the newest N dates (ISO dates sort).  The
    # excess is computed explicitly — a negated-keep slice silently
    # turns `--keep 0` into "delete everything".
    excess = len(runs) - args.keep
    for date in sorted(runs)[:max(0, excess)]:
        del runs[date]
    with open(args.trajectory, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trajectory {args.trajectory}: {len(runs)} run(s), "
          f"newest {max(runs)}")
    return 0


def parse_seeds(text: str) -> List[int]:
    """``2201-2210`` or ``2201,2203,2207``."""
    try:
        if "-" in text:
            first, last = text.split("-")
            return list(range(int(first), int(last) + 1))
        return [int(seed) for seed in text.split(",")]
    except ValueError:
        raise GuardError(f"error: bad --seeds {text!r}",
                         EXIT_BAD_INPUT) from None


def load_runs(path: str) -> List[dict]:
    """One ``perfbench/run.py --workload all`` result per line (its
    final line, workload -> result), in run order."""
    runs = []
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    runs.append(json.loads(line))
                except json.JSONDecodeError as err:
                    raise GuardError(f"error: {path}:{number}: {err}",
                                     EXIT_BAD_INPUT) from None
    except FileNotFoundError:
        raise GuardError(f"error: runs file {path} does not exist",
                         EXIT_BAD_INPUT) from None
    return runs


def spread(values: List[float]) -> float:
    """Inclusive interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def cmd_record(args: argparse.Namespace) -> int:
    """Build one BENCH_perfbench.json row from paired perfbench runs and
    judge it with BENCHMARK.json's metric directions and bounds: the
    claimed metric must win at least 9 of 10 pairs with medians further
    apart than the parent's IQR; every other change median may be worse
    than its parent median by at most the metric's bound; every run
    must report ``correct``.  The row is printed, and appended to
    ``--append`` only when the verdict passes.

    Without a claim every metric is judged by its bound alone, and
    ``--append`` is refused: the record holds rows of performance
    changes only."""
    if not args.claim and args.append:
        raise GuardError("error: --append needs --claim: the record"
                         " holds rows of claimed gains only",
                         EXIT_BAD_INPUT)
    with open(args.benchmark) as fh:
        benchmark = json.load(fh)
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    parent = load_runs(args.parent_runs)
    change = load_runs(args.change_runs)
    seeds = parse_seeds(args.seeds)
    if not (len(parent) == len(change) == len(seeds)) or not seeds:
        raise GuardError(
            f"error: {len(parent)} parent runs, {len(change)} change runs"
            f" and {len(seeds)} seeds: one run per seed and side",
            EXIT_BAD_INPUT)
    claim_workload, _, claim_metric = args.claim.partition(":")
    if args.claim and claim_metric not in metrics:
        raise GuardError(f"error: --claim names no end-to-end metric:"
                         f" {args.claim!r}", EXIT_BAD_INPUT)
    failures = []
    workloads = {}
    for workload in parent[0]:
        sides = []
        for side, runs in (("parent", parent), ("change", change)):
            results = []
            for seed, run in zip(seeds, runs):
                if workload not in run:
                    raise GuardError(f"error: {side} run of seed {seed}"
                                     f" has no {workload} result",
                                     EXIT_BAD_INPUT)
                if not run[workload]["correct"]:
                    failures.append(f"{workload}: {side} run of seed {seed}"
                                    " is not correct")
                results.append(run[workload]["metrics"])
            sides.append(results)
        record = {}
        for name, metric in metrics.items():
            before = [run[name]["value"] for run in sides[0]]
            after = [run[name]["value"] for run in sides[1]]
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(1 for a, b in zip(before, after) if sign * (b - a) > 0)
            old = statistics.median(before)
            new = statistics.median(after)
            iqr = spread(before)
            record[name] = {
                "parent_median": round(old, 4),
                "change_median": round(new, 4),
                "change_wins": wins,
                "parent_iqr_over_median": round(iqr, 4),
            }
            worse = -sign * (new - old) / old if old else 0.0
            where = f"{workload} {name}"
            if (workload, name) == (claim_workload, claim_metric):
                if wins * 10 < 9 * len(seeds):
                    failures.append(f"{where}: claimed gain won {wins} of"
                                    f" {len(seeds)} pairs")
                if -worse <= iqr:
                    failures.append(f"{where}: claimed gain {-worse:+.1%}"
                                    f" is inside the parent IQR {iqr:.1%}")
            elif worse > metric["bound"]:
                failures.append(f"{where}: median {worse:+.1%} worse, past"
                                f" its {metric['bound']:.0%} bound")
            print(f"{where:34s} {old:12.4f} -> {new:12.4f}"
                  f" wins {wins}/{len(seeds)}  iqr {iqr:.3f}")
        workloads[workload] = {"seeds": seeds, "metrics": record}
    if args.claim and claim_workload not in workloads:
        raise GuardError(f"error: no {claim_workload} runs for --claim",
                         EXIT_BAD_INPUT)
    claimed = None
    if args.claim:
        claimed = {"workload": claim_workload, "metric": claim_metric}
    row = {
        "change": args.change,
        "parent": args.parent_commit,
        "claimed": claimed,
        "run_seconds": benchmark["run_seconds"],
        "workloads": workloads,
    }
    print(json.dumps(row, indent=1))
    if failures:
        print(f"\nFAIL: {len(failures)} check(s):", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return EXIT_REGRESSION
    if args.append:
        with open(args.append) as fh:
            record_file = json.load(fh)
        record_file["rows"].append(row)
        with open(args.append, "w") as fh:
            json.dump(record_file, fh, indent=1)
            fh.write("\n")
        print(f"appended the row to {args.append}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser(
        "extract", help="distill a pytest-benchmark JSON into a summary"
    )
    extract.add_argument("results", help="pytest-benchmark JSON file")
    extract.add_argument("-o", "--output", required=True)
    extract.set_defaults(func=cmd_extract)

    guard = sub.add_parser(
        "guard", help="fail when normalized means regress past tolerance"
    )
    guard.add_argument("results", help="pytest-benchmark JSON file")
    guard.add_argument("--baseline", required=True)
    guard.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown (default 0.25)",
    )
    guard.set_defaults(func=cmd_guard)

    trajectory = sub.add_parser(
        "trajectory",
        help="append a distilled run to the rolling nightly trajectory",
    )
    trajectory.add_argument("results", help="pytest-benchmark JSON file")
    trajectory.add_argument(
        "--trajectory", default="BENCH_trajectory.json",
        help="rolling trajectory file (created if missing)",
    )
    trajectory.add_argument(
        "--date", default=None,
        help="ISO date key for this run (default: today, UTC)",
    )
    trajectory.add_argument(
        "--run-id", default="", help="CI run id recorded with the entry"
    )
    trajectory.add_argument(
        "--keep", type=int, default=90,
        help="newest dates retained in the rolling window (default 90)",
    )
    trajectory.set_defaults(func=cmd_trajectory)

    record = sub.add_parser(
        "record",
        help="turn paired perfbench runs into a BENCH_perfbench.json row",
    )
    record.add_argument("--parent-runs", required=True,
                        help="parent side: the final JSON line of"
                             " run.py --workload all, one per seed")
    record.add_argument("--change-runs", required=True,
                        help="change side, same seeds in the same order")
    record.add_argument("--seeds", required=True,
                        help="the pairs' seeds: FIRST-LAST or a,b,c")
    record.add_argument("--claim", default="",
                        help="claimed gain as WORKLOAD:METRIC; without"
                             " it, only the bounds are judged")
    record.add_argument("--change", required=True,
                        help="one-line title of the change")
    record.add_argument("--parent-commit", required=True)
    record.add_argument("--benchmark", default="BENCHMARK.json")
    record.add_argument("--append", default="",
                        help="record file to append a passing row to")
    record.set_defaults(func=cmd_record)

    args = parser.parse_args()
    if getattr(args, "date", None) is None and args.func is cmd_trajectory:
        import datetime

        args.date = datetime.datetime.now(
            datetime.timezone.utc
        ).date().isoformat()
    try:
        return args.func(args)
    except GuardError as err:
        print(err, file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
