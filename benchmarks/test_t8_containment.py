"""T8 — containment overhead on the server hot paths.

Not a paper claim: a regression guard for this repo's adversarial-client
containment layer (per-client quotas + the backpressure pipeline stage,
see ``repro.xserver.quotas``).  The promise is that containment is
*free for the innocent*: with default (generous) limits and every
client under quota, the quota accounting and the extra pipeline stage
must not change what gets delivered, and must not add measurable cost
to the T7 motion-sweep hot path.

Containment has no off switch, so there is no off side to compare
against:

- **counter-level** (runs under ``--benchmark-disable``, so CI always
  checks it): a warmed sweep by clients under quota sheds, throttles,
  denies, warns and drops nothing;
- **timing-level** (pytest-benchmark, group ``t8``): the sweep with
  containment in place, for the printed report.  Its cost on the
  request and event paths is also measured end to end by the
  ``wm_session`` and ``stack_churn`` rows of ``BENCH_perfbench.json``.
"""

import pytest

from repro.xserver import ClientConnection

from .conftest import fresh_server, report
from .test_t7_server_hotpaths import populate, sweep


def sweep_and_drain(server, conn):
    """One motion sweep followed by the client draining its queue — a
    *well-behaved* client.  Draining matters: a client that never reads
    grows its queue past the high-water mark, at which point it is over
    quota and deliberately pays for force-coalescing — the hostile
    case, not the baseline this guard is about."""
    sweep(server)
    conn.events()


def contained_sweep_counters():
    """One warmed motion sweep; returns its delivery and containment
    counters."""
    server = fresh_server()
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
        "dropped": stats.get("dropped"),
    }


def test_t8_no_behaviour_change_under_quota():
    """With every client under quota, containment must be a no-op: the
    sweep is delivered and no containment path fires."""
    counters = contained_sweep_counters()
    report("T8: containment is inert for well-behaved clients",
           [f"counters: {counters}"])
    assert counters["delivered"] > 0
    assert counters["shed"] == 0
    assert counters["throttles"] == 0
    assert counters["denials"] == 0
    assert counters["warnings"] == 0
    assert counters["dropped"] == 0


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
def test_t8_motion_sweep_overhead(benchmark):
    """The T7 motion sweep with the containment layer in place."""
    server = fresh_server()
    conn = populate(server, 16, select=True)
    sweep_and_drain(server, conn)  # warm
    benchmark(sweep_and_drain, server, conn)
