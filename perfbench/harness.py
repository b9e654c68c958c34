"""The closed load loop, latency bookkeeping and metric assembly shared
by the three workloads.

A workload instance exposes:

- ``next_op()`` -> ``(kind, fn)``: the next operation drawn from the
  instance's seeded RNG; ``fn()`` performs it and returns False when
  its own check failed.  *kind* names the latency class (``void``,
  ``reply``, ``map``, ``pan`` or a workload-specific one).
- ``stats_snapshot()``: the server's ``stats().snapshot()`` (from the
  server process on the TCP workload), used for count deltas.
- ``problems()``: the end-of-run correctness check, a list of strings.
- ``signature_extra()``: workload counts to add to the signature.
- ``peak_rss_kb()``: VmHWM of the process hosting the server.
- ``layer_totals()``: layer totals of other processes (TCP server).
- ``client_pings()``: heartbeat probes its TCP clients sent.
- ``close()``.

Optionally, ``server_probe_ns()`` runs the CPU reference probe in the
server process, and the class attributes ``DISK`` (the program fsyncs:
time the disk apart) and ``WAIT_SOCKETS`` (time blocked socket reads
as ``transport.wait`` when traced).

Every request blocks until it completes, so the loop is closed: the
next operation starts when the previous one returned.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

#: Latency classes reported as end-to-end metrics (besides all ops).
KINDS = ("void", "reply", "map", "pan")

#: Snapshot sections whose counts must repeat exactly for one seed.
#: The wire counters are left out: heartbeats run on wall-clock time.
SIGNATURE_KEYS = ("requests", "delivered", "coalesced", "dropped",
                  "guarded_errors", "batch", "caches")


def vm_hwm_kb() -> int:
    """Peak resident set size of this process (VmHWM), in kB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def delta(after, before):
    """Numeric difference of two nested snapshot dicts (keys missing
    from *before* count as zero; non-numeric leaves are dropped)."""
    if isinstance(after, dict):
        out = {}
        for key, value in after.items():
            diff = delta(value, before.get(key) if isinstance(before, dict)
                         else None)
            if diff is not None:
                out[key] = diff
        return out
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return None
    return after - (before if isinstance(before, (int, float)) else 0)


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile (0 <= q <= 1) of sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    frac = pos - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


#: Operations per window: ops_per_s, op_p50_us and op_p99_us are
#: medians over windows of this many consecutive operations (a p99
#: with ten samples beyond it), so a stall spoils one window, not the
#: run.
WINDOW_OPS = 1000
#: The reference probes run this often (wall-clock ns) between ops.
PROBE_EVERY_NS = 50_000_000
#: Probe times at the reference speeds; times are reported at them.
CPU_REFERENCE_NS = 1_250_000
DISK_REFERENCE_NS = 600_000


def cpu_probe_ns() -> int:
    """Time a fixed pure-interpreter loop that shares no code with the
    program: it tracks how fast this host runs Python right now."""
    started = time.perf_counter_ns()
    table: Dict[int, int] = {}
    for i in range(5_000):
        table[i % 500] = table.get(i % 500, 0) + i
    return time.perf_counter_ns() - started


class DiskTimer:
    """Times every ``os.fsync`` the program makes while installed, so
    an operation's latency splits into disk wait and the rest, and
    times a probe fsync of its own that tracks the disk's speed."""

    def __init__(self, probe_dir: str) -> None:
        self.ns = 0
        self.probe_path = os.path.join(probe_dir, "disk-probe")
        self._real: Optional[Callable] = None

    def __enter__(self) -> "DiskTimer":
        os.makedirs(os.path.dirname(self.probe_path), exist_ok=True)
        real = self._real = os.fsync
        clock = time.perf_counter_ns

        def fsync(fd):
            started = clock()
            try:
                return real(fd)
            finally:
                self.ns += clock() - started

        os.fsync = fsync
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._real

    def probe_ns(self) -> int:
        """Write, fsync and rename one small file, as a checkpoint
        save does; returns the fsync's duration."""
        temp = self.probe_path + ".tmp"
        with open(temp, "wb") as handle:
            handle.write(b"p" * 1024)
            handle.flush()
            started = time.perf_counter_ns()
            self._real(handle.fileno())
            took = time.perf_counter_ns() - started
        os.replace(temp, self.probe_path)
        return took


class Recorder:
    """Latency (ns), disk wait (ns) and class of every operation of one
    phase, failure counts, and the reference probes taken between
    operations."""

    def __init__(self, disk: Optional[DiskTimer] = None) -> None:
        self.disk = disk
        self.all: List[int] = []
        self.disk_ns: List[int] = []
        self.kinds: List[str] = []
        self.cpu_probes: List[int] = []
        self.disk_probes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.elapsed_s = 0.0

    def run(self, instance, budget_s: Optional[float] = None,
            ops: Optional[int] = None) -> "Recorder":
        """Run operations until *budget_s* seconds elapsed or *ops*
        operations completed, whichever is given, probing the host's
        speed every PROBE_EVERY_NS between two operations."""
        clock = time.perf_counter_ns
        disk = self.disk
        remote_probe = getattr(instance, "server_probe_ns", None)
        started = next_probe = clock()
        deadline = started + int(budget_s * 1e9) if budget_s else None
        while True:
            now = clock()
            if now >= next_probe:
                self.cpu_probes.append(cpu_probe_ns())
                if remote_probe is not None:
                    self.cpu_probes.append(remote_probe())
                if disk is not None:
                    self.disk_probes.append(disk.probe_ns())
                next_probe = clock() + PROBE_EVERY_NS
                started += clock() - now  # probes are not the program's
            if ops is not None and self.attempted >= ops:
                break
            if deadline is not None and now >= deadline:
                break
            kind, fn = instance.next_op()
            waited = disk.ns if disk is not None else 0
            t0 = clock()
            try:
                ok = fn() is not False
            except Exception:  # a failed op is counted; the run goes on
                ok = False
                if self.first_failure is None:
                    self.first_failure = traceback.format_exc()
            took = clock() - t0
            self.attempted += 1
            if not ok:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = f"{kind} op reported a failed check"
            self.all.append(took)
            self.disk_ns.append(disk.ns - waited if disk is not None else 0)
            self.kinds.append(kind)
        self.elapsed_s = (clock() - started) / 1e9
        return self

    def us_per_op(self) -> float:
        return self.elapsed_s * 1e6 / max(1, self.attempted)

    def cpu_scale(self) -> float:
        """Reference CPU probe time over the phase's mean probe time:
        below 1 while the host runs faster than the reference."""
        return cpu_scale([self])

    def disk_scale(self) -> float:
        """The same for the disk probe (1 when no disk is timed)."""
        return disk_scale([self])

    def end_to_end(self, at_reference: bool = True) -> Dict[str, float]:
        """Latency metrics (µs) and ops_per_s, at the reference speeds
        unless *at_reference* is false.  ops_per_s and op p50/p99 are
        medians over full windows (one window if the phase ran fewer
        operations); the per-class percentiles pool the whole phase."""
        if at_reference:
            cpu, disk = self.cpu_scale(), self.disk_scale()
            latencies = [(ns - waited) * cpu + waited * disk
                         for ns, waited in zip(self.all, self.disk_ns)]
        else:
            latencies = list(self.all)
        windows = [latencies[i:i + WINDOW_OPS]
                   for i in range(0, len(latencies) - WINDOW_OPS + 1,
                                  WINDOW_OPS)] or [latencies]
        ordered = [sorted(window) for window in windows]
        metrics = {
            "ops_per_s": statistics.median(
                len(window) * 1e9 / sum(window) for window in windows),
            "op_p50_us": statistics.median(
                percentile(window, 0.50) for window in ordered) / 1e3,
            "op_p99_us": statistics.median(
                percentile(window, 0.99) for window in ordered) / 1e3,
        }
        by_kind: Dict[str, List[float]] = {}
        for kind, ns in zip(self.kinds, latencies):
            by_kind.setdefault(kind, []).append(ns)
        for kind in KINDS:
            values = sorted(by_kind.get(kind, ()))
            if not values:
                raise RuntimeError(f"no {kind!r} operations were run")
            metrics[f"{kind}_p50_us"] = percentile(values, 0.50) / 1e3
            if kind == "map":
                metrics["map_p95_us"] = percentile(values, 0.95) / 1e3
        return metrics

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind in self.kinds:
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))


def cpu_scale(recorders) -> float:
    """CPU reference probe time over the mean of *recorders*' probes."""
    return CPU_REFERENCE_NS / statistics.mean(
        ns for recorder in recorders for ns in recorder.cpu_probes)


def disk_scale(recorders) -> float:
    """Disk reference probe time over the mean of *recorders*' disk
    probes; 1 when no disk is timed."""
    probes = [ns for recorder in recorders for ns in recorder.disk_probes]
    return DISK_REFERENCE_NS / statistics.mean(probes) if probes else 1.0


def scaled(metrics: Dict[str, float], units: Dict[str, str],
           scale: float) -> Dict[str, float]:
    """*metrics* at the reference CPU speed: times multiply by *scale*,
    rates divide by it, everything else is left as measured."""
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        if unit in ("s", "us"):
            value *= scale
        elif unit == "1/s":
            value /= scale
        out[name] = value
    return out


def signature(instance, before: dict, extra: dict) -> str:
    """Digest of the deterministic counts since *before*."""
    diff = delta(instance.stats_snapshot(), before)
    counts = {key: diff.get(key, {}) for key in SIGNATURE_KEYS}
    counts["workload"] = extra
    blob = json.dumps(counts, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def counted_phase(factory: Callable, seed: int, ops: int,
                  disk: Optional[DiskTimer] = None):
    """Set up one instance, time the set-up, then run the fixed count
    phase (which doubles as warm-up).  Returns the instance, the set-up
    time and the part of it spent in fsync (ns), the phase's recorder
    and its signature digest."""
    gc.collect()
    waited = disk.ns if disk is not None else 0
    t0 = time.perf_counter_ns()
    instance = factory(seed)
    setup_ns = time.perf_counter_ns() - t0
    waited = disk.ns - waited if disk is not None else 0
    before = instance.stats_snapshot()
    extra_before = instance.signature_extra()
    recorder = Recorder(disk).run(instance, ops=ops)
    extra = delta(instance.signature_extra(), extra_before)
    digest = signature(instance, before, extra)
    if recorder.failed:
        log(f"count phase failure: {recorder.first_failure}")
    return instance, (setup_ns, waited), recorder, digest
