"""T11 — the tracing layer is inert when disabled, bounded when on.

Not a paper claim: a regression guard for the observability layer
(``repro.xserver.trace``).  The tracer ships disabled; every hot path
guards on one ``tracer.enabled`` attribute test.  The promise has two
halves:

- **disabled = invisible** (runs under ``--benchmark-disable``, so CI
  always checks it): a warmed motion sweep and a request-heavy
  workload produce bit-identical delivery/request counters with the
  tracer enabled and disabled, and a disabled tracer records zero
  spans across a full WM session.  The committed T7/T10 baselines
  (``tools/bench_guard.py``) hold the timing half of this promise to
  account — the tracer is disabled there.
- **enabled = bounded**: tracing on may cost real work (timestamping,
  histogram updates, ring appends) but must stay within a small
  constant factor of the untraced hot path — no O(n) scans, no
  allocation storms.  The ratio guard allows 3x because a single CI
  run is noisy; the printed medians are the numbers to eyeball.
"""

import pytest

from repro.xserver import ClientConnection

from .conftest import fresh_server, report
from .test_t7_server_hotpaths import SWEEP, populate, sweep


def sweep_and_drain(server, conn):
    sweep(server)
    conn.events()


def traced_sweep_counters(enabled):
    """One warmed motion sweep; delivery counters with tracing on/off."""
    server = fresh_server()
    if enabled:
        server.tracer.enable()
    conn = populate(server, 16, select=True)
    sweep_and_drain(server, conn)  # warm caches
    server.stats().reset()
    sweep(server)
    stats = server.stats()
    return {
        "delivered": stats.get("delivered", type="MotionNotify"),
        "coalesced": stats.get("coalesced", type="MotionNotify"),
        "dropped": stats.get("dropped"),
        "requests": stats.get("requests"),
    }


def test_t11_tracing_disabled_changes_no_counters():
    """The sweep's delivery counters must be identical with the tracer
    enabled and disabled — tracing observes, never steers."""
    on = traced_sweep_counters(enabled=True)
    off = traced_sweep_counters(enabled=False)
    report(
        "T11: tracing does not change delivery behaviour",
        [f"enabled:  {on}", f"disabled: {off}"],
    )
    assert on == off


def test_t11_disabled_tracer_records_nothing():
    """A full request workload against a default server leaves the
    tracer empty: no spans, no histograms, zero signature."""
    server = fresh_server()
    conn = ClientConnection(server, "app")
    root = conn.root_window()
    wids = [conn.create_window(root, i * 9, i * 7, 80, 60)
            for i in range(20)]
    for wid in wids:
        conn.map_window(wid)
        conn.configure_window(wid, x=1, y=2)
    tracer = server.tracer
    assert not tracer.enabled
    assert tracer.spans == 0
    assert tracer.signature == 0
    assert tracer.opcodes == {}
    assert server.stats().snapshot()["trace"]["enabled"] is False


@pytest.mark.benchmark(group="t11")
@pytest.mark.parametrize("traced", [True, False],
                         ids=["tracing-on", "tracing-off"])
def test_t11_motion_sweep_tracing_overhead(benchmark, traced):
    """The T7 motion sweep with tracing on vs. off — compare medians."""
    server = fresh_server()
    if traced:
        server.tracer.enable()
    conn = populate(server, 16, select=True)
    sweep_and_drain(server, conn)  # warm
    benchmark(sweep_and_drain, server, conn)


def test_t11_overhead_bounded():
    """Single-shot ratio guard that still runs under
    --benchmark-disable.  Enabled tracing does real per-event work, so
    the bound is a constant factor (3x), not noise — a regression to
    O(queue) or per-span allocation storms shows up as much more."""
    import time

    def timed(enabled):
        server = fresh_server()
        if enabled:
            server.tracer.enable()
        conn = populate(server, 16, select=True)
        sweep_and_drain(server, conn)  # warm
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            sweep_and_drain(server, conn)
            best = min(best, time.perf_counter() - start)
        return best

    off = timed(False)
    on = timed(True)
    ratio = on / off
    report(
        "T11: motion-sweep tracing overhead",
        [
            f"sweep of {SWEEP} events, population 16 (best of 5)",
            f"tracing off: {off * 1e3:.2f} ms",
            f"tracing on:  {on * 1e3:.2f} ms",
            f"ratio: {ratio:.3f} (guard < 3.0)",
        ],
    )
    assert ratio < 3.0
