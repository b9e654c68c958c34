"""T8 — containment overhead on the server hot paths.

Not a paper claim: a regression guard for this repo's adversarial-client
containment layer (per-client quotas + the backpressure pipeline stage,
see ``repro.xserver.quotas``).  The promise is that containment is
*free for the innocent*: with default (generous) limits and every
client under quota, the quota accounting and the extra pipeline stage
must not change what gets delivered, and must not add measurable cost
to the T7 motion-sweep hot path.

Two layers of guard:

- **counter-level** (runs under ``--benchmark-disable``, so CI always
  checks it): the same warmed sweep with the backpressure stage in
  place and with it removed produces identical delivered/coalesced
  counters and zero shed/throttle/denial activity;
- **timing-level** (pytest-benchmark, group ``t8``): the sweep is
  benchmarked with quotas enabled and disabled; the enabled run must
  stay within noise (< 5% per the issue; the assert allows 1.5x
  because single-run CI timing is far noisier than the medians a human
  compares — the printed report is the number to eyeball).
"""

import pytest

from repro.xserver import ClientConnection, XServer

from .conftest import fresh_server, report
from .test_t7_server_hotpaths import SWEEP, populate, sweep


def sweep_and_drain(server, conn):
    """One motion sweep followed by the client draining its queue — a
    *well-behaved* client.  Draining matters: a client that never reads
    grows its queue past the high-water mark, at which point it is over
    quota and deliberately pays for force-coalescing — the hostile
    case, not the baseline this guard is about."""
    sweep(server)
    conn.events()


def contained_sweep_counters(enabled):
    """One warmed motion sweep; returns the delivery counters with the
    containment layer *enabled* or fully disabled."""
    server = fresh_server()
    server.quotas.enabled = enabled
    conn = populate(server, 16, select=True)
    sweep_and_drain(server, conn)  # warm caches
    server.stats().reset()
    sweep(server)
    stats = server.stats()
    return {
        "delivered": stats.get("delivered", type="MotionNotify"),
        "coalesced": stats.get("coalesced", type="MotionNotify"),
        "shed": stats.get("shed"),
        "throttles": stats.get("throttles"),
        "denials": stats.get("quota_denials"),
        "warnings": stats.get("quota_warnings"),
    }


def test_t8_no_behaviour_change_under_quota():
    """With every client under quota, containment must be a no-op:
    identical delivery counters, zero containment activity."""
    on = contained_sweep_counters(enabled=True)
    off = contained_sweep_counters(enabled=False)
    report(
        "T8: containment is inert for well-behaved clients",
        [f"enabled:  {on}", f"disabled: {off}"],
    )
    assert on == off
    assert on["shed"] == 0
    assert on["throttles"] == 0
    assert on["denials"] == 0
    assert on["warnings"] == 0


def test_t8_request_accounting_is_exact():
    """The quota ledgers track a busy well-behaved client exactly (the
    oracle cross-check on a non-adversarial workload)."""
    from repro.testing import quota_problems

    server = fresh_server()
    conn = ClientConnection(server, "busy")
    wids = []
    for i in range(40):
        wid = conn.create_window(
            conn.root_window(), i * 11 % 800, i * 17 % 600, 60, 40
        )
        conn.map_window(wid)
        conn.set_string_property(wid, "WM_NAME", f"win-{i}")
        wids.append(wid)
    for wid in wids[::2]:
        conn.destroy_window(wid)
    assert quota_problems(server) == []
    assert server.quotas.windows[conn.client_id] == 20


@pytest.mark.benchmark(group="t8")
@pytest.mark.parametrize("contained", [True, False],
                         ids=["quotas-on", "quotas-off"])
def test_t8_motion_sweep_overhead(benchmark, contained):
    """The T7 motion sweep with the containment layer on vs. off —
    compare the two medians; they should be within noise (< 5%)."""
    server = fresh_server()
    server.quotas.enabled = contained
    conn = populate(server, 16, select=True)
    sweep_and_drain(server, conn)  # warm
    benchmark(sweep_and_drain, server, conn)


def test_t8_overhead_within_noise():
    """Single-shot wall-clock ratio guard that still runs when CI uses
    --benchmark-disable.  The bound is deliberately loose (1.5x) — a
    real regression (e.g. an O(queue) scan per delivery) shows up as
    integer multiples; honest noise does not reach 50%."""
    import time

    def timed(enabled):
        server = fresh_server()
        server.quotas.enabled = enabled
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
        "T8: motion-sweep containment overhead",
        [
            f"sweep of {SWEEP} events, population 16 (best of 5)",
            f"quotas off: {off * 1e3:.2f} ms",
            f"quotas on:  {on * 1e3:.2f} ms",
            f"ratio: {ratio:.3f} (target: within noise, guard < 1.5)",
        ],
    )
    assert ratio < 1.5
