"""Seeded chaos runs against a fully-featured swm.

The main run drives hundreds of mixed operations — spawning and killing
clients, WM functions, device input, pans, desktop switches — while a
:class:`FaultPlan` injects errors, abrupt client kills, stale-XID races
and event loss/delay.  At fixed checkpoints (injection suspended) the
WM repairs itself and the managed-table / frame-tree / server-tree
consistency oracle must hold; at the end the event loop must still be
alive (a fresh client gets managed normally).

Everything is replayable: the workload RNG and the fault plan both
derive from this test's ``chaos_seed`` (see conftest).
"""

import random

import pytest

from repro.clients import launch_command
from repro.core.templates import ROOT_PANEL_TEMPLATE, load_template
from repro.core.wm import Swm
from repro.icccm.hints import ICONIC_STATE, NORMAL_STATE
from repro.testing import assert_quotas_enforced, assert_wm_consistent
from repro.xserver import QuotaLimits, XServer
from repro.xserver.errors import XError
from repro.xserver.faults import (
    DELAY,
    DROP,
    ERROR,
    FLOOD,
    KILL,
    STALE,
    ConnectionClosed,
    FaultPlan,
)

PROGRAMS = ["xterm", "xclock", "xload", "xlogo", "oclock", "cmdtool"]

#: The acceptance bar: a chaos run must land at least this many faults.
MIN_FAULTS = 220


def full_wm(server, places):
    db = load_template("OpenLook+")
    db.load_string(ROOT_PANEL_TEMPLATE)
    db.put("swm*rootPanels", "RootPanel")
    db.put("swm*panel.RootPanel.geometry", "+700+700")
    db.put("swm*virtualDesktop", "3000x2400")
    db.put("swm*virtualDesktops", "2")
    db.put("swm*iconHolders", "stash")
    db.put("swm*holder.stash.classes", "XTerm")
    db.put("swm*holder.stash.geometry", "+900+10")
    return Swm(server, db, places_path=places)


def build_plan(seed, app_clients):
    """The standard chaos rule set.

    Error rules hit every connection (the WM's guarded degradation
    paths absorb them); kill and stale rules are restricted to app
    connections — killing the WM's own connection is the separate
    restart scenario, not a per-request fault.  Delivery faults hit
    everyone: the WM must cope with lost and late notifications too.
    """
    is_app = lambda cid: cid in app_clients  # noqa: E731
    is_anyone = lambda cid: True  # excludes device input (no client)  # noqa: E731
    plan = FaultPlan(seed)
    plan.rule(ERROR, probability=0.03, error="BadWindow", clients=is_anyone,
              name="any-badwindow")
    plan.rule(ERROR, probability=0.015, error="BadMatch", clients=is_anyone,
              name="any-badmatch")
    plan.rule(ERROR, probability=0.01, error="BadAccess", clients=is_anyone,
              name="any-badaccess")
    plan.rule(KILL, probability=0.03, clients=is_app, when="before",
              name="app-kill-before")
    plan.rule(KILL, probability=0.015, clients=is_app, when="after",
              name="app-kill-after")
    plan.rule(STALE, probability=0.03, clients=is_app, name="app-stale")
    plan.rule(DROP, probability=0.25, events=("Expose", "MotionNotify"),
              name="drop-noise")
    plan.rule(DROP, probability=0.03,
              events=("UnmapNotify", "DestroyNotify"),
              name="drop-lifecycle")
    plan.rule(DELAY, probability=0.15,
              events=("ConfigureNotify", "PropertyNotify", "EnterNotify",
                      "LeaveNotify"),
              name="delay-notify")
    return plan


def checkpoint(wm, server, plan):
    """Repair + verify with injection suspended: flush delayed events,
    drain the loop, reap zombies, then the consistency oracle."""
    with plan.suspended():
        plan.release_delayed(server, shuffle=True)
        wm.process_pending()
        wm.reap_zombies()
        wm.process_pending()
        assert_wm_consistent(wm)


def test_chaos_run(chaos_seed, tmp_path):
    rng = random.Random(chaos_seed)
    server = XServer(screens=[(1152, 900, 8)])
    wm = full_wm(server, str(tmp_path / "places"))
    wm.process_pending()

    apps = []
    app_clients = set()
    plan = server.install_faults(build_plan(chaos_seed, app_clients))

    def spawn():
        program = rng.choice(PROGRAMS)
        argv = [program]
        if program != "cmdtool" and rng.random() < 0.7:
            argv += ["-geometry",
                     f"+{rng.randint(0, 900)}+{rng.randint(0, 700)}"]
        try:
            app = launch_command(server, argv)
        except (XError, ConnectionClosed):
            return  # died being born — that's chaos
        apps.append(app)
        app_clients.add(app.conn.client_id)

    def needs_more():
        return (
            plan.total_injected() < MIN_FAULTS
            or plan.injected(ERROR) == 0
            or plan.injected(KILL) == 0
            or plan.injected(STALE) == 0
        )

    step = 0
    while step < 4000 and (step < 400 or needs_more()):
        step += 1
        live = [
            a for a in apps
            if a.conn.is_alive() and a.wid in wm.managed
        ]
        roll = rng.random()
        if roll < 0.18 and len(live) < 10:
            spawn()
        elif roll < 0.38 and live:
            # The app acts on its own windows: the requests that kill
            # and stale rules race against.
            app = rng.choice(live)
            try:
                action = rng.randint(0, 2)
                if action == 0:
                    app.set_title(f"title-{step}")
                elif action == 1:
                    app.conn.configure_window(
                        app.wid,
                        width=rng.randint(40, 600),
                        height=rng.randint(40, 400),
                    )
                else:
                    app.conn.raise_window(app.wid)
            except (XError, ConnectionClosed):
                pass
        elif roll < 0.42 and live and rng.random() < 0.5:
            app = rng.choice(live)
            try:
                app.quit()
            except (XError, ConnectionClosed):
                pass
        elif roll < 0.50:
            # Device input takes the real event path through grabs,
            # menus, and bindings.
            server.motion(rng.randint(0, 1151), rng.randint(0, 899))
            if rng.random() < 0.4:
                button = rng.randint(1, 3)
                server.button_press(button)
                server.button_release(button)
        elif live:
            managed = wm.managed.get(rng.choice(live).wid)
            if managed is None:
                continue
            action = rng.randint(0, 10)
            if action == 0:
                wm.guarded(wm.iconify, managed, what="chaos")
            elif action == 1:
                wm.guarded(wm.deiconify, managed, what="chaos")
            elif action == 2:
                wm.guarded(wm.move_managed_to, managed,
                           rng.randint(0, 2500), rng.randint(0, 2000),
                           what="chaos")
            elif action == 3:
                wm.guarded(wm.resize_managed, managed,
                           rng.randint(40, 700), rng.randint(40, 500),
                           what="chaos")
            elif action == 4:
                wm.guarded(wm.raise_managed, managed, what="chaos")
            elif action == 5:
                wm.guarded(wm.lower_managed, managed, what="chaos")
            elif action == 6 and managed.state == NORMAL_STATE:
                sticky_op = wm.unstick if managed.sticky else wm.stick
                wm.guarded(sticky_op, managed, what="chaos")
            elif action == 7:
                wm.guarded(wm.pan_to, 0,
                           rng.randint(0, 1848), rng.randint(0, 1500),
                           what="chaos")
            elif action == 8:
                wm.guarded(wm.switch_desktop, 0, rng.randint(0, 1),
                           what="chaos")
            elif action == 9 and not managed.sticky:
                wm.guarded(wm.send_to_desktop, managed, rng.randint(0, 1),
                           what="chaos")
            elif action == 10:
                wm.guarded(wm.focus_managed, managed, what="chaos")
        wm.process_pending()
        if step % 40 == 0:
            checkpoint(wm, server, plan)

    checkpoint(wm, server, plan)

    # The acceptance bar: enough faults, across every rule family.
    assert plan.total_injected() >= MIN_FAULTS, plan.counts
    assert plan.injected(ERROR) > 0, plan.counts
    assert plan.injected(KILL) > 0, plan.counts
    assert plan.injected(STALE) > 0, plan.counts
    assert plan.injected(DROP) + plan.injected(DELAY) > 0, plan.counts
    assert server.stats().get("injected") == (
        plan.total_injected()
    )
    # The WM absorbed real errors along the way rather than crashing.
    assert server.stats().get("guarded") > 0

    # The event loop is still alive: with faults off, a fresh client
    # is adopted and decorated like nothing ever happened.
    server.clear_faults()
    probe = launch_command(server, ["xterm"])
    wm.process_pending()
    assert probe.wid in wm.managed
    assert wm.managed[probe.wid].frame in wm.frames
    assert_wm_consistent(wm)
    print(
        f"chaos run: seed={chaos_seed} steps={step} "
        f"faults={dict(plan.counts)} "
        f"guarded={server.stats().get('guarded')}"
    )


def replay_workload(seed, places, after_step=None):
    """A 150-step launch-and-move workload under the standard plan;
    returns its fault log as (serial, kind, target, detail) tuples.
    *after_step*, if given, is called with the server after each step;
    it must not issue requests, or the fault log moves."""
    rng = random.Random(seed)
    server = XServer(screens=[(1152, 900, 8)])
    wm = full_wm(server, places)
    wm.process_pending()
    apps = []
    app_clients = set()
    plan = server.install_faults(build_plan(seed, app_clients))
    for step in range(150):
        live = [
            a for a in apps
            if a.conn.is_alive() and a.wid in wm.managed
        ]
        roll = rng.random()
        if roll < 0.3 and len(live) < 8:
            try:
                app = launch_command(server, [rng.choice(PROGRAMS)])
                apps.append(app)
                app_clients.add(app.conn.client_id)
            except (XError, ConnectionClosed):
                pass
        elif live:
            managed = wm.managed.get(rng.choice(live).wid)
            if managed is not None:
                wm.guarded(wm.move_managed_to, managed,
                           rng.randint(0, 2000), rng.randint(0, 1500),
                           what="chaos")
        wm.process_pending()
        if after_step is not None:
            after_step(server)
    return [(f.serial, f.kind, f.target, f.detail) for f in plan.log]


def test_chaos_run_is_replayable(chaos_seed, tmp_path):
    """Same seed, same workload → bit-identical fault log."""
    first = replay_workload(chaos_seed, str(tmp_path / "places-a"))
    assert first == replay_workload(chaos_seed, str(tmp_path / "places-b"))


def test_kill_during_manage_leaves_no_debris(tmp_path):
    """A client that dies while the WM is decorating it: manage() must
    abort cleanly — no managed entry, no leaked frame, no stray object
    windows — and the WM must keep running."""
    server = XServer(screens=[(1152, 900, 8)])
    wm = full_wm(server, str(tmp_path / "places"))
    wm.process_pending()
    baseline_frames = set(wm.frames)
    baseline_objects = set(wm.object_windows)

    plan = FaultPlan(seed=42)
    # The WM's reparent (client into frame) trips a stale race on its
    # target: the client window dies mid-manage.
    plan.rule(STALE, requests=("reparent_window",), max_fires=1)
    server.install_faults(plan)

    app = launch_command(server, ["xclock"])
    wm.process_pending()

    assert plan.injected(STALE) == 1
    assert app.wid not in wm.managed
    assert set(wm.frames) == baseline_frames
    assert set(wm.object_windows) == baseline_objects
    assert_wm_consistent(wm)

    # Still alive: the next client manages normally.
    server.clear_faults()
    probe = launch_command(server, ["xterm"])
    wm.process_pending()
    assert probe.wid in wm.managed


def test_flooding_client_is_contained(chaos_seed, tmp_path):
    """One client turns hostile mid-run (the FLOOD fault: property
    rewrite + SendEvent storms fired from inside its own requests); the
    WM and the other clients must not notice — no sheds or denials land
    on them, their windows stay managed, and the oracles hold."""
    server = XServer(
        screens=[(1152, 900, 8)],
        quota_limits=QuotaLimits(
            max_property_bytes=4096, high_water=64,
            low_water=16, hard_cap=128,
        ),
    )
    wm = full_wm(server, str(tmp_path / "places"))
    wm.process_pending()

    flooder = launch_command(server, ["xterm"])
    bystander = launch_command(server, ["xclock"])
    wm.process_pending()

    plan = FaultPlan(chaos_seed)
    plan.rule(FLOOD, probability=0.3, burst=60,
              clients=[flooder.conn.client_id], name="turncoat")
    server.install_faults(plan)

    rng = random.Random(chaos_seed)
    for step in range(120):
        # Both apps keep issuing ordinary requests; only the flooder's
        # ever detonate the storm.
        for app in (flooder, bystander):
            try:
                if rng.random() < 0.5:
                    app.set_title(f"t{step}")
                else:
                    app.conn.raise_window(app.wid)
            except (XError, ConnectionClosed):
                pass
            app.conn.events()  # well-behaved clients drain
        wm.process_pending()

    assert plan.injected(FLOOD) > 0, plan.counts
    server.clear_faults()
    wm.process_pending()
    wm.reap_zombies()
    wm.process_pending()

    stats = server.stats()
    # All containment fallout (if any) landed on the flooder alone.
    for cid in (wm.conn.client_id, bystander.conn.client_id):
        assert stats.get("quota_denials", client=cid) == 0
        assert stats.get("shed", client=cid) == 0
    assert bystander.conn.pending() < server.quotas.limits.high_water
    assert bystander.wid in wm.managed
    assert flooder.wid in wm.managed  # flooding != dying
    assert_wm_consistent(wm)
    assert_quotas_enforced(server)


def test_flood_injection_is_replayable(chaos_seed, tmp_path):
    """Same seed → the same storms fire at the same requests and the
    same quota counters result."""

    def run(tag):
        server = XServer(
            screens=[(1152, 900, 8)],
            quota_limits=QuotaLimits(max_property_bytes=2048),
        )
        wm = full_wm(server, str(tmp_path / f"places-{tag}"))
        wm.process_pending()
        app = launch_command(server, ["xterm"])
        wm.process_pending()
        plan = FaultPlan(chaos_seed)
        plan.rule(FLOOD, probability=0.25, burst=30,
                  clients=[app.conn.client_id], name="turncoat")
        server.install_faults(plan)
        for step in range(60):
            try:
                app.set_title(f"t{step}")
            except (XError, ConnectionClosed):
                pass
            wm.process_pending()
        return (
            [(f.serial, f.kind, f.target, f.detail) for f in plan.log],
            server.stats().snapshot()["quotas"],
        )

    assert run("a") == run("b")


def test_icon_window_stale_race_is_repaired(tmp_path):
    """An iconified client's icon window dies behind the WM's back;
    the reaper must rebuild (or surface the frame) rather than leave an
    unreachable client."""
    server = XServer(screens=[(1152, 900, 8)])
    wm = full_wm(server, str(tmp_path / "places"))
    wm.process_pending()

    app = launch_command(server, ["xclock"])
    wm.process_pending()
    managed = wm.managed[app.wid]
    wm.iconify(managed)
    assert managed.state == ICONIC_STATE
    icon_window = managed.icon.window

    # The icon window vanishes without ceremony.
    server._destroy_tree(server.windows[icon_window])
    wm.process_pending()
    wm.reap_zombies()
    wm.process_pending()

    assert_wm_consistent(wm)
    if managed.state == ICONIC_STATE:
        assert managed.icon is not None
        assert managed.icon.window != icon_window
    else:
        assert managed.state == NORMAL_STATE
