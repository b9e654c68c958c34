"""Seeded link chaos against a WM-managed framed client.

The acceptance scenario for wire resilience: a real ``Swm`` manages the
server over loopback while an application client works it over the
framed wire, and a seeded :class:`FaultPlan` keeps dropping, lagging,
reordering, corrupting and duplicating frames mid-session.  The client
must heal every flap through reconnect-with-backoff and session
resumption — zero windows lost (wm-consistency and adoption oracles),
zero unhandled server errors — and because every random draw derives
from the test seed, two runs of the same scenario must produce
bit-identical event streams, fault logs and reconnect schedules.

Replay a failure with the seed from the terminal summary::

    CHAOS_SEED=<seed> PYTHONPATH=src python -m pytest \
        tests/chaos/test_chaos_link.py -q
"""

import contextlib
import random
from collections import Counter

from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.testing import adoption_problems, wm_consistency_problems
from repro.xserver import ClientConnection, EventMask, XServer
from repro.xserver import events as ev
from repro.xserver.faults import (
    CORRUPT,
    DUPLICATE,
    LAG,
    PARTITION,
    REORDER,
    FaultPlan,
)
from repro.xserver.wire import (
    FramedHost,
    FramedTransport,
    ResilienceConfig,
    resilience,
)

#: The acceptance bar: a run must land at least this many link faults.
MIN_FAULTS = 40
WINDOWS = 4
STEPS = 400


def build_plan(seed):
    # arm_after shields the HELLO/WELCOME handshake: before the client
    # holds a resume token there is no session to heal, so a fault
    # there is a failed connect, not a flap.
    plan = FaultPlan(seed)
    plan.rule(PARTITION, probability=0.01, arm_after=12, name="partition")
    plan.rule(LAG, probability=0.02, lag=2, direction="s2c", arm_after=12,
              name="lag")
    plan.rule(REORDER, probability=0.015, arm_after=12, name="reorder")
    plan.rule(CORRUPT, probability=0.004, arm_after=12, name="corrupt")
    plan.rule(DUPLICATE, probability=0.02, arm_after=12, name="duplicate")
    return plan


@contextlib.contextmanager
def counting_executions():
    """Count the requests the wire server executes, per client id, by
    wrapping its dispatch entry point while the block runs."""
    counts = Counter()
    dispatch = resilience.dispatch_request

    def counting(server, record, name, args, kwargs):
        counts[record.client_id] += 1
        return dispatch(server, record, name, args, kwargs)

    resilience.dispatch_request = counting
    try:
        yield counts
    finally:
        resilience.dispatch_request = dispatch


def run_scenario(seed, places):
    """One full managed-client-under-link-chaos run.  Returns a
    deterministic signature of everything observable, with the
    requests the app sent (its final ``close`` included: the wire
    sends it outside the request ledger) and the executions the server
    ran for it."""
    with counting_executions() as executed:
        result, transport = tour(seed, places)
    result["requests"] = transport._cs.requests_sent + 1
    result["executed"] = executed[transport.client_id]
    return result


def tour(seed, places):
    server = XServer()
    wm = Swm(server, load_template("OpenLook+"), places_path=places)
    host = FramedHost(server, ResilienceConfig(seed=seed, park_grace=60.0))
    plan = build_plan(seed)
    transport = FramedTransport(host, plan, sleep=host.advance)
    conn = ClientConnection(name="chaos-link-app", transport=transport)

    root = conn.root_window()
    rng = random.Random(seed ^ 0x11AC)
    windows = []
    for i in range(WINDOWS):
        wid = conn.create_window(root, 10 * i, 10 * i, 40, 30)
        conn.select_input(
            wid, EventMask.StructureNotify | EventMask.PropertyChange
        )
        conn.set_string_property(wid, "WM_NAME", f"chaos-{i}")
        conn.map_window(wid)
        windows.append(wid)

    observed = []
    for step in range(STEPS):
        wid = rng.choice(windows)
        action = rng.randrange(5)
        if action == 0:
            conn.move_window(wid, rng.randrange(300), rng.randrange(300))
        elif action == 1:
            conn.resize_window(
                wid, 20 + rng.randrange(100), 20 + rng.randrange(100)
            )
        elif action == 2:
            conn.configure_window(
                wid, stack_mode=rng.choice((ev.ABOVE, ev.BELOW))
            )
        elif action == 3:
            conn.set_string_property(
                wid, "SWM_CHAOS", "link" * rng.randint(1, 8)
            )
        else:
            assert conn.get_geometry(wid) is not None
        if step % 20 == 0:
            host.heartbeat_tick()
        for event in conn.events():
            observed.append((
                type(event).__name__,
                getattr(event, "window", None),
                getattr(event, "x", None),
                getattr(event, "y", None),
            ))

    # Quiesce with injection suspended: the oracle traffic itself must
    # not be perturbed (or heal anything).
    with plan.suspended():
        missing = [w for w in windows if not conn.window_exists(w)]
        problems = wm_consistency_problems(wm)
        problems += adoption_problems(wm, windows)
        geometry = [conn.get_geometry(w) for w in windows]
        stats = server.stats()
        lost = stats.get("wire", transport="framed", key="sessions_lost")
        conn.close()

    return {
        "missing": missing,
        "problems": problems,
        "errors": [repr(e) for e in host.errors],
        "lost": lost,
        "reconnects": transport.reconnects,
        "delays": list(transport.delays),
        "faults": [
            (f.serial, f.kind, f.target, f.detail) for f in plan.log
        ],
        "fault_counts": dict(sorted(plan.counts.items())),
        "observed": observed,
        "geometry": geometry,
        "parked": stats.get("wire", transport="framed", key="parked"),
        "resumed": stats.get("wire", transport="framed", key="resumed"),
    }, transport


class TestLinkChaos:
    def test_managed_client_survives_link_chaos(self, chaos_seed, tmp_path):
        result = run_scenario(chaos_seed, str(tmp_path / "a.places"))
        # The plan actually exercised the link...
        assert len(result["faults"]) >= MIN_FAULTS
        # ...the client had to reconnect and did so under backoff...
        assert result["reconnects"] >= 1
        assert len(result["delays"]) >= result["reconnects"]
        assert result["parked"] == result["resumed"]
        # ...and nothing was lost: no session death, no missing
        # windows, clean consistency + adoption oracles, no unhandled
        # server-side errors.
        assert result["lost"] == 0
        assert result["missing"] == []
        assert result["problems"] == []
        assert result["errors"] == []
        assert len(result["observed"]) > 0
        # Every request ran exactly once, whatever the link did to it.
        assert result["executed"] == result["requests"]

    def test_same_seed_replays_bit_identically(self, chaos_seed, tmp_path):
        first = run_scenario(chaos_seed, str(tmp_path / "b.places"))
        second = run_scenario(chaos_seed, str(tmp_path / "c.places"))
        assert first == second
