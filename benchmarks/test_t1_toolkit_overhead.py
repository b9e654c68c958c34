"""T1 — §8's performance claim.

"swm, like any toolkit based window manager, has somewhat slower
performance than a window manager written directly on top of Xlib" —
but the flexibility is "well worth the speed trade-off".

We manage N clients and drive M window operations under each WM:

- rawwm: directly on Xlib, no reparenting (the fast bound)
- twm:   fixed-policy reparenting WM
- swm:   object/resource-driven (this paper)

Expected shape: raw < twm < swm per operation; swm within a small
constant factor (the paper's "somewhat slower"), not an order of
magnitude.
"""

import time

import pytest

from repro.baselines import RawWM, Twm
from repro.clients import XTerm

from .conftest import fresh_server, fresh_wm, report

N_CLIENTS = 12
N_OPS = 60


def drive_clients(server):
    apps = [
        XTerm(server, ["xterm", "-geometry", f"+{40 * i}+{30 * i}"])
        for i in range(N_CLIENTS)
    ]
    return apps


def swm_workload(server):
    wm = fresh_wm(server)
    apps = drive_clients(server)
    wm.process_pending()
    for step in range(N_OPS):
        managed = wm.managed[apps[step % N_CLIENTS].wid]
        wm.move_managed_to(managed, 10 + step * 3, 20 + step * 2)
        wm.raise_managed(managed)
        if step % 10 == 0:
            wm.iconify(managed)
            wm.deiconify(managed)
    wm.quit()
    for app in apps:
        app.quit()


def twm_workload(server):
    wm = Twm(server, "Button1 = : title : f.raise\n")
    apps = drive_clients(server)
    wm.process_pending()
    for step in range(N_OPS):
        entry = wm.windows[apps[step % N_CLIENTS].wid]
        wm.move_window(entry, 10 + step * 3, 20 + step * 2)
        wm.raise_window(entry)
        if step % 10 == 0:
            wm.iconify(entry)
            wm.deiconify(entry)
    wm.quit()
    for app in apps:
        app.quit()


def raw_workload(server):
    wm = RawWM(server)
    apps = drive_clients(server)
    wm.process_pending()
    for step in range(N_OPS):
        wid = apps[step % N_CLIENTS].wid
        wm.move_window(wid, 10 + step * 3, 20 + step * 2)
        wm.raise_window(wid)
        if step % 10 == 0:
            wm.iconify(wid)
            wm.deiconify(wid)
    wm.quit()
    for app in apps:
        app.quit()


WORKLOADS = {
    "rawwm (direct Xlib)": raw_workload,
    "twm (fixed policy)": twm_workload,
    "swm (toolkit/objects)": swm_workload,
}


def _time(workload):
    best = float("inf")
    for _ in range(3):
        server = fresh_server()
        start = time.perf_counter()
        workload(server)
        best = min(best, time.perf_counter() - start)
    return best


def test_t1_request_counts():
    """A timing-noise-free view of the same claim: protocol requests
    issued per workload.  swm's extra requests are the object windows
    of its decorations — the 'toolkit overhead' of §8."""
    counts = {}
    for name, workload in WORKLOADS.items():
        server = fresh_server()
        before = server.stats().get("requests")
        workload(server)
        counts[name] = server.stats().get("requests") - before
    raw = counts["rawwm (direct Xlib)"]
    lines = [
        f"{name:24s} {count:8d} requests  ({count / raw:5.2f}x raw)"
        for name, count in counts.items()
    ]
    report("T1b: protocol requests per workload", lines)
    assert counts["rawwm (direct Xlib)"] <= counts["twm (fixed policy)"]
    assert counts["twm (fixed policy)"] <= counts["swm (toolkit/objects)"]


def test_t1_shape():
    """The ordering and rough magnitude of §8's claim."""
    times = {name: _time(fn) for name, fn in WORKLOADS.items()}
    raw = times["rawwm (direct Xlib)"]
    lines = [
        f"{name:24s} {seconds * 1000:8.2f} ms  ({seconds / raw:5.2f}x raw)"
        for name, seconds in times.items()
    ]
    lines.append(f"(N={N_CLIENTS} clients, {N_OPS} move/raise ops + iconify cycles)")
    report("T1: manage+operate latency, swm vs baselines", lines)
    # Who wins: the raw WM is fastest; swm pays the toolkit overhead.
    assert raw <= times["swm (toolkit/objects)"]
    # ...but "somewhat slower", not catastrophically: within ~40x here
    # (the paper gives no number; the claim is a constant factor).
    assert times["swm (toolkit/objects)"] / raw < 40


@pytest.mark.benchmark(group="t1")
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_t1_workload(benchmark, name):
    workload = WORKLOADS[name]

    def run():
        workload(fresh_server())

    benchmark(run)
