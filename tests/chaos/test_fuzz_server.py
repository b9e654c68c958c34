"""Seeded protocol fuzzing: hostile clients vs. the containment layer.

Four adversarial clients drive the full attack mix (window spam,
property storms, grab abuse, send-event floods, malformed requests)
against a server with deliberately tight quotas while a fully-featured
swm manages the fallout and an innocent bystander client keeps working.

Acceptance, per seed: the run completes with zero unhandled exceptions
(the fuzzer only absorbs expected protocol pushback), the bystander's
queue stays below the high-water mark, no grab outlives the watchdog
budget, the WM-consistency and quota oracles both hold, and the whole
run replays bit-identically — same seed, same quota/shed/throttle
counters, same action log.

Replay a failing CI run with the seed from the terminal summary::

    CHAOS_SEED=<seed> PYTHONPATH=src python -m pytest tests/chaos/test_fuzz_server.py -q
"""

from repro.clients import launch_command
from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.testing import assert_quotas_enforced, assert_wm_consistent
from repro.xserver import ProtocolFuzzer, QuotaLimits, XServer

#: Tight enough that a 500-step hostile run trips every quota family,
#: generous enough that the WM and the bystander never feel them.
TIGHT_LIMITS = dict(
    max_windows=64,
    max_property_bytes=3072,
    max_pending_grabs=6,
    high_water=64,
    low_water=16,
    hard_cap=128,
    coalesce_scan=16,
    grab_tick_budget=4,
)

#: The acceptance bar for one fuzz run.
MIN_HOSTILE_REQUESTS = 500


def make_arena(places):
    """Server with tight quotas + full WM + one innocent bystander."""
    server = XServer(
        screens=[(1152, 900, 8)], quota_limits=QuotaLimits(**TIGHT_LIMITS)
    )
    wm = Swm(server, load_template("OpenLook+"), places_path=places)
    wm.process_pending()
    bystander = launch_command(server, ["xclock"])
    wm.process_pending()
    return server, wm, bystander


def settle(server, wm):
    """Let the watchdog run out every grab budget with the fuzzer
    quiet: after this no hostile grab may survive."""
    for _ in range(TIGHT_LIMITS["grab_tick_budget"] + 2):
        wm.process_pending()  # pumps server.housekeeping_tick()


def run_fuzz(seed, places):
    server, wm, bystander = make_arena(places)
    fuzzer = ProtocolFuzzer(server, seed, clients=4)
    fuzzer.run(
        requests=MIN_HOSTILE_REQUESTS + 400,
        pump=wm.process_pending,
        pump_every=10,
    )
    settle(server, wm)
    return server, wm, bystander, fuzzer


def test_fuzz_containment(chaos_seed, tmp_path):
    server, wm, bystander, fuzzer = run_fuzz(
        chaos_seed, str(tmp_path / "places")
    )

    # The fuzzer really attacked: every attack kind ran, and the
    # request volume cleared the bar.
    assert fuzzer.steps >= MIN_HOSTILE_REQUESTS
    assert set(fuzzer.actions) == {
        "window_spam", "property_storm", "grab_abuse",
        "send_event_flood", "malformed",
    }

    # Containment bit: quotas denied, backpressure shed, hard caps
    # throttled (hostiles never drain their queues).
    stats = server.stats()
    assert stats.get("quota_denials") > 0, fuzzer.denials
    assert fuzzer.denials["QuotaExceeded"] > 0
    assert stats.get("shed") > 0
    assert stats.get("throttles") > 0

    # Bystanders are untouched: no denials, no sheds, queue far from
    # the water marks, and the client still works.
    for cid in (bystander.conn.client_id, wm.conn.client_id):
        assert stats.get("quota_denials", client=cid) == 0
        assert stats.get("shed", client=cid) == 0
    assert bystander.conn.pending() < TIGHT_LIMITS["high_water"]
    assert bystander.conn.is_alive()
    bystander.set_title("still-here")
    wm.process_pending()

    # Hostile queues are bounded by the hard cap.
    for state in fuzzer.clients:
        assert state.conn.pending() <= TIGHT_LIMITS["hard_cap"]

    # No grab outlived the watchdog: after settling, any active grab
    # would have to belong to a draining client — the hostiles never
    # drain, so nothing of theirs may remain; passive grabs of
    # long-throttled hostiles were pruned too.
    hostile_ids = {s.conn.client_id for s in fuzzer.clients}
    grab = server.active_grab
    assert grab is None or grab.client not in hostile_ids
    for cid in hostile_ids:
        if server.quotas.is_throttled(cid):
            assert server.grabs.count_for_client(cid) == 0

    # The WM survived with its world model intact, and the server's
    # quota ledgers match reality.
    assert_wm_consistent(wm)
    assert_quotas_enforced(server)

    # Still open for business: a fresh, polite client gets managed.
    probe = launch_command(server, ["xterm"])
    wm.process_pending()
    assert probe.wid in wm.managed
    assert_wm_consistent(wm)
    print(
        f"fuzz run: seed={chaos_seed} steps={fuzzer.steps} "
        f"actions={dict(fuzzer.actions)} denials={dict(fuzzer.denials)} "
        f"shed={stats.get('shed')} throttles={stats.get('throttles')} "
        f"grabs_broken={stats.get('grabs_broken')}"
    )


def test_fuzz_run_is_replayable(chaos_seed, tmp_path):
    """Same seed → identical action log and identical quota/shed/
    throttle counters, down to the per-client breakdowns."""

    def run(tag):
        server, wm, bystander, fuzzer = run_fuzz(
            chaos_seed, str(tmp_path / f"places-{tag}")
        )
        return fuzzer.log, server.stats().snapshot()["quotas"]

    log_a, quotas_a = run("a")
    log_b, quotas_b = run("b")
    assert log_a == log_b
    assert quotas_a == quotas_b


def test_hostile_grab_broken_within_budget(chaos_seed, tmp_path):
    """A hostile client that takes the pointer grab and goes silent
    loses it after exactly the watchdog budget — and input flows
    again."""
    server, wm, bystander = make_arena(str(tmp_path / "places"))
    hostile = ProtocolFuzzer(server, chaos_seed, clients=1).clients[0]
    wid = hostile.conn.create_window(
        hostile.conn.root_window(), 0, 0, 50, 50
    )
    hostile.conn.map_window(wid)
    wm.process_pending()
    from repro.xserver import EventMask

    hostile.conn.grab_pointer(wid, EventMask.PointerMotion)
    assert server.active_grab is not None
    broken_before = server.stats().get("grabs_broken")
    budget = TIGHT_LIMITS["grab_tick_budget"]
    for _ in range(budget):
        server.housekeeping_tick()
    assert server.active_grab is not None  # within budget: untouched
    server.housekeeping_tick()
    assert server.active_grab is None
    assert server.stats().get("grabs_broken") == broken_before + 1
    # The WM keeps running and the world is still consistent.
    wm.process_pending()
    assert_wm_consistent(wm)
    assert_quotas_enforced(server)
