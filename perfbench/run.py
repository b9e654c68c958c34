"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (see DESIGN.md for why each exists and what each per-layer
metric should move): ``wm_session``, ``wire_tcp`` and ``stack_churn``.
Each is a closed loop generated from ``--seed``; the program only sees
the generated operations.

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs a fixed count phase after each set-up whose deterministic
counts must repeat exactly, then measures ``--seconds`` of operations
and reports the end-to-end metrics.  ``--trace 1`` runs the count phase
once untraced and once with the layer wrappers installed (the counts
must match; the rate difference is the tracing overhead), then
measures ``--seconds`` traced and reports the per-layer metrics.  Both
end with the workload's correctness check.

Every metric is printed as ``<workload> <name> <value> <unit>``; the
last line of standard output is the JSON result.  ``--workload all``
runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("wm_session", "wire_tcp", "stack_churn")

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 7
#: Operations in the count phase that follows each set-up.
COUNT_OPS = {"wm_session": 500, "wire_tcp": 1000, "stack_churn": 400}

#: End-to-end metrics: (name, unit).  Bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("void_p50_us", "us"),
    ("reply_p50_us", "us"),
    ("map_p50_us", "us"),
    ("map_p95_us", "us"),
    ("pan_p50_us", "us"),
    ("peak_rss_mb", "MB"),
)


def load_workload(name: str):
    if name == "wm_session":
        from wm_session import WmSession as cls
    elif name == "stack_churn":
        from stack_churn import StackChurn as cls
    else:
        from wire_tcp import WireTcp as cls
    return cls


def disk_timer(cls, workdir: str):
    """A DiskTimer for workloads whose program fsyncs, else a no-op."""
    from harness import DiskTimer

    if getattr(cls, "DISK", False):
        return DiskTimer(os.path.join(workdir, "probe"))
    return contextlib.nullcontext()


def untraced(name: str, seed: int, seconds: int, workdir: str) -> dict:
    from harness import (Recorder, counted_phase, cpu_scale, disk_scale,
                         log)

    cls = load_workload(name)
    setups, digests, recorders = [], [], []
    instance = None
    with disk_timer(cls, workdir) as disk:
        try:
            for rep in range(SETUP_REPS):
                if instance is not None:
                    instance.close()
                    instance = None
                rep_dir = os.path.join(workdir, f"rep{rep}")
                instance, setup, recorder, digest = counted_phase(
                    lambda seed: cls(seed, rep_dir), seed, COUNT_OPS[name],
                    disk,
                )
                setups.append(setup)
                digests.append(digest)
                recorders.append(recorder)
            log(f"{name}: count-phase signatures {digests}")
            gc.collect()
            recorder = Recorder(disk).run(instance, budget_s=seconds)
            problems = instance.problems()
            rss_mb = instance.peak_rss_kb() / 1024
        finally:
            if instance is not None:
                instance.close()
    if recorder.failed:
        log(f"{name}: first failure: {recorder.first_failure}")
    # Set-ups are too short to carry their own probes: scale them by
    # every probe of the run.
    recorders.append(recorder)
    cpu, dsk = cpu_scale(recorders), disk_scale(recorders)
    metrics = {
        "setup_s": statistics.median(
            ((ns - waited) * cpu + waited * dsk) / 1e9
            for ns, waited in setups),
        **recorder.end_to_end(),
        "peak_rss_mb": rss_mb,
    }
    raw = {"setup_s": statistics.median(ns / 1e9 for ns, _ in setups),
           **recorder.end_to_end(at_reference=False), "peak_rss_mb": rss_mb}
    repeated = len(set(digests)) == 1
    failed = sum(rec.failed for rec in recorders) + len(problems)
    return {
        "problems": problems,
        "repeated": repeated,
        "attempted": sum(rec.attempted for rec in recorders),
        "failed": failed + (not repeated),
        "metrics": metrics,
        "raw": raw,
        "scales": (recorder.cpu_scale(), recorder.disk_scale()),
        "units": dict(END_TO_END),
        "samples": recorder.counts(),
        "signature": digests[0],
    }


def traced(name: str, seed: int, seconds: int, workdir: str) -> dict:
    from harness import Recorder, counted_phase, delta, log, scaled
    from layers import PER_LAYER, LayerTracer, layer_metrics

    cls = load_workload(name)
    with disk_timer(cls, workdir) as disk:
        plain, _, plain_rec, plain_digest = counted_phase(
            lambda seed: cls(seed, os.path.join(workdir, "plain")),
            seed, COUNT_OPS[name], disk,
        )
        plain.close()
        gc.collect()
        tracer = LayerTracer()
        tracer.install(wait_sockets=getattr(cls, "WAIT_SOCKETS", False))
        instance = None
        try:
            instance, _, traced_rec, traced_digest = counted_phase(
                lambda seed: cls(seed, os.path.join(workdir, "traced"),
                                 traced=True),
                seed, COUNT_OPS[name], disk,
            )
            log(f"{name}: count-phase signatures untraced {plain_digest}"
                f" traced {traced_digest}")
            stats_before = instance.stats_snapshot()
            remote_before = instance.layer_totals()
            pings_before = instance.client_pings()
            gc.collect()
            tracer.reset()
            recorder = Recorder(disk).run(instance, budget_s=seconds)
            local = tracer.totals()
            stats = delta(instance.stats_snapshot(), stats_before)
            remote = delta(instance.layer_totals(), remote_before)
            pings = instance.client_pings() - pings_before
            problems = instance.problems()
        finally:
            if instance is not None:
                instance.close()
            tracer.uninstall()
    if recorder.failed:
        log(f"{name}: first failure: {recorder.first_failure}")
    overhead = (traced_rec.us_per_op() * traced_rec.cpu_scale()
                / (plain_rec.us_per_op() * plain_rec.cpu_scale())) - 1
    metrics = layer_metrics(local, remote, stats, recorder.attempted,
                            recorder.elapsed_s, pings, overhead)
    units = {metric: unit for metric, unit, _ in PER_LAYER}
    repeated = plain_digest == traced_digest
    failed = plain_rec.failed + traced_rec.failed + recorder.failed
    return {
        "problems": problems,
        "repeated": repeated,
        "attempted": (plain_rec.attempted + traced_rec.attempted
                      + recorder.attempted),
        "failed": failed + len(problems) + (not repeated),
        "metrics": scaled(metrics, units, recorder.cpu_scale()),
        "raw": metrics,
        "scales": (recorder.cpu_scale(), recorder.disk_scale()),
        "units": units,
        "samples": recorder.counts(),
        "signature": plain_digest,
    }


def run_one(name: str, seed: int, seconds: int, trace: int) -> int:
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(ROOT, ".perfbench-tmp", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measure = traced if trace else untraced
        outcome = measure(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    units = outcome["units"]
    for problem in outcome["problems"]:
        print(f"{name} problem: {problem}", file=sys.stderr)
    print(f"{name} signature {outcome['signature']}"
          f" repeated={outcome['repeated']} samples {outcome['samples']}")
    print(f"{name} error_frac {outcome['failed'] / outcome['attempted']!r}"
          f" ratio")
    cpu, disk = outcome["scales"]
    print(f"{name} cpu_scale {cpu!r} ratio")
    print(f"{name} disk_scale {disk!r} ratio")
    for metric, value in outcome["metrics"].items():
        print(f"{name} {metric} {value!r} {units[metric]}"
              f" (measured {outcome['raw'][metric]!r})")
    correct = (outcome["failed"] == 0 and outcome["repeated"]
               and not outcome["problems"])
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in outcome["metrics"].items()
        },
    }))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; prints their metric lines and
    a final JSON object mapping workload to result."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: run from a checkout of the"
              " repository", file=sys.stderr)
        return 2
    if opts.workload == "all":
        return run_all(opts.seed, opts.seconds, opts.trace)
    return run_one(opts.workload, opts.seed, opts.seconds, opts.trace)


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"finished in {time.monotonic() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
