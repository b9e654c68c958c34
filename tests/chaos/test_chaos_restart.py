"""Kill-the-WM-anywhere chaos: supervised crash-restart at every site.

One long-lived :class:`Supervisor` survives a tour of crash points: for
each (request, arm_after) site a fault plan with a single ``crash``
rule is installed — matching only the WM's own connection — and a mixed
workload (spawns, moves, resizes, iconify cycles, focus, pointer warps,
swmcmd writes, client quits) is driven through ``sup.run`` until the
rule fires.  After every recovery the consistency oracle and the
adoption oracle must hold and no pre-crash client may be lost.

The site list covers every request family the WM issues; two arming
depths per request put one crash early in a burst and one in the middle
of later traffic, so both half-built and steady-state structures get
interrupted.  Cleanup alternates between ``close`` (save-set rescue)
and ``abandon`` (zombie frames left for adoption) so both cold-start
shapes are exercised at every other site.
"""

import random

from repro.clients import launch_command
from repro.core.swmcmd import swmcmd
from repro.icccm.hints import ICONIC_STATE, NORMAL_STATE
from repro.session.store import SessionStore
from repro.session.supervisor import Supervisor
from repro.testing import (
    assert_adoption_complete,
    assert_wm_consistent,
)
from repro.xserver import XServer
from repro.xserver.faults import CRASH, FaultPlan

from .conftest import derive_seed
from .test_chaos_session import full_wm

#: Every request family the WM's own connection issues while serving
#: the workload below.  Two arming depths each → the crash-site matrix.
WM_REQUESTS = [
    "create_window",
    "destroy_window",
    "map_window",
    "unmap_window",
    "reparent_window",
    "configure_window",
    "change_window_attributes",
    "change_property",
    "delete_property",
    "change_save_set",
    "set_input_focus",
    "warp_pointer",
    "send_event",
]

ARM_DEPTHS = (0, 7)

#: The acceptance bar from the issue: distinct recovered crash sites.
MIN_SITES = 25

PROGRAMS = ["xterm", "xclock", "xload", "xlogo", "oclock"]


def wm_connection(server):
    def predicate(client_id):
        conn = server.clients.get(client_id)
        return conn is not None and conn.name == "swm"
    return predicate


def crash_sites():
    return [
        (request, arm_after)
        for request in WM_REQUESTS
        for arm_after in ARM_DEPTHS
    ]


def managed_clients(wm):
    return [m for m in wm.managed.values() if not m.is_internal]


def make_workload(sup, server, apps, rng):
    """One cycle of supervised actions; every WM request family in
    WM_REQUESTS occurs at least once per cycle.  Each action fetches
    live state at call time, so a mid-cycle restart never leaves a
    later action holding a dead WM's objects."""

    def spawn():
        if len([a for a in apps if a.conn.is_alive()]) < 6:
            app = sup.run(
                launch_command, server,
                [rng.choice(PROGRAMS), "-geometry",
                 f"+{rng.randint(10, 900)}+{rng.randint(10, 700)}"],
            )
            if app is not None:
                apps.append(app)

    def pick(state=None):
        candidates = [
            m for m in managed_clients(sup.wm)
            if state is None or m.state == state
        ]
        return candidates[0] if candidates else None

    def move():
        managed = pick(NORMAL_STATE)
        if managed is not None:
            sup.run(sup.wm.move_managed_to, managed,
                    rng.randint(0, 2000), rng.randint(0, 1500))

    def resize():
        managed = pick(NORMAL_STATE)
        if managed is not None:
            sup.run(sup.wm.resize_managed, managed,
                    rng.randint(60, 600), rng.randint(60, 400))

    def iconify():
        managed = pick(NORMAL_STATE)
        if managed is not None:
            sup.run(sup.wm.iconify, managed)

    def deiconify():
        managed = pick(ICONIC_STATE)
        if managed is not None:
            sup.run(sup.wm.deiconify, managed)

    def focus():
        managed = pick(NORMAL_STATE)
        if managed is not None:
            sup.run(sup.wm.focus_managed, managed)

    def warp():
        sup.run(sup.wm.warp_pointer_by,
                rng.randint(-40, 40), rng.randint(-40, 40))

    def command():
        # A root-property write: the WM answers with delete_property.
        sup.run(swmcmd, server, "f.beep")

    def client_configure():
        # A client-side ConfigureRequest: the WM answers with a
        # synthetic ConfigureNotify (send_event).
        live = [a for a in apps if a.conn.is_alive()
                and a.wid in sup.wm.managed]
        if live:
            app = rng.choice(live)
            sup.run(app.conn.configure_window, app.wid,
                    width=rng.randint(80, 500), height=rng.randint(80, 400))

    def quit_one():
        live = [a for a in apps if a.conn.is_alive()]
        if len(live) > 2:
            victim = live[-1]
            sup.run(victim.quit)
            apps.remove(victim)

    return [
        spawn, move, resize, iconify, deiconify, focus,
        warp, command, client_configure, quit_one,
    ]


def test_supervisor_recovers_at_every_crash_site(
    chaos_seed, tmp_path, checkpoint_oracle
):
    server = XServer(screens=[(1152, 900, 8)])
    store = SessionStore(str(tmp_path / "ck"))

    # full_wm builds its own Swm; attach the store after boot so the
    # autosave debounce keeps checkpoints flowing between crashes.
    def factory(srv, st):
        wm = full_wm(srv, str(tmp_path / "places"))
        wm.session_store = st
        return wm

    sup = Supervisor(
        server,
        store,
        factory,
        storm_threshold=10_000,  # the tour is deliberately crash-dense
        backoff_base=2,
        backoff_cap=8,
    )
    sup.start()
    sup.pump()

    rng = random.Random(chaos_seed)
    apps = []
    # Seed the session with a couple of clients and one checkpoint.
    for _ in range(2):
        apps.append(launch_command(server, ["xterm"]))
    sup.pump()
    assert sup.wm.session.autosave()

    sites = crash_sites()
    assert len(sites) >= MIN_SITES
    recovered = []

    for index, (request, arm_after) in enumerate(sites):
        sup.cleanup = "abandon" if index % 2 else "close"
        predicate = wm_connection(server)
        plan = FaultPlan(derive_seed(chaos_seed, f"{request}@{arm_after}"))
        rule = plan.rule(
            CRASH,
            probability=1.0,
            requests=(request,),
            clients=predicate,
            arm_after=arm_after,
            max_fires=1,
            name=f"crash@{request}+{arm_after}",
        )
        server.install_faults(plan)

        actions = make_workload(sup, server, apps, rng)
        crashes_before = len(sup.crashes)
        pre = []
        for step in range(150):
            pre = [m.client for m in managed_clients(sup.wm)]
            actions[step % len(actions)]()
            sup.pump()
            if rule.fires:
                break
        server.clear_faults()

        assert rule.fires == 1, (
            f"site {request}+{arm_after}: workload never reached the"
            f" crash point (seen={rule.seen})"
        )
        assert len(sup.crashes) == crashes_before + 1
        sup.pump()

        # The oracles: bookkeeping consistent, estate fully adopted,
        # zero pre-crash clients lost.
        assert_wm_consistent(sup.wm)
        assert_adoption_complete(sup.wm, pre)
        for client in pre:
            window = server.windows.get(client)
            if window is not None and not window.destroyed:
                assert client in sup.wm.managed, (
                    f"site {request}+{arm_after} lost client {client:#x}"
                )
        recovered.append((request, arm_after))

    assert len(recovered) == len(sites)
    assert len(sup.crashes) >= MIN_SITES
    assert not sup.tripped

    # The tour left a live, serviceable WM: a fresh client manages.
    probe = launch_command(server, ["xterm"])
    sup.pump()
    assert probe.wid in sup.wm.managed
    assert_wm_consistent(sup.wm)
    assert checkpoint_oracle, "no checkpoint was checked"
    print(
        f"restart chaos: seed={chaos_seed} sites={len(recovered)} "
        f"crashes={len(sup.crashes)} restarts={sup.restarts} "
        f"checkpoints={store.saves} checked={len(checkpoint_oracle)}"
    )


def test_crash_tour_is_replayable(chaos_seed, tmp_path, checkpoint_oracle):
    """Same seed → the same crash sites fire at the same timestamps."""

    def run(tag):
        server = XServer(screens=[(1152, 900, 8)])
        store = SessionStore(str(tmp_path / f"ck-{tag}"))

        def factory(srv, st):
            wm = full_wm(srv, str(tmp_path / f"places-{tag}"))
            wm.session_store = st
            return wm

        sup = Supervisor(server, store, factory, storm_threshold=1000,
                         backoff_base=2, backoff_cap=8)
        sup.start()
        rng = random.Random(chaos_seed)
        apps = [launch_command(server, ["xterm"])]
        sup.pump()
        log = []
        for request in ("configure_window", "unmap_window", "map_window"):
            plan = FaultPlan(derive_seed(chaos_seed, request))
            rule = plan.rule(
                CRASH, probability=1.0, requests=(request,),
                clients=wm_connection(server), max_fires=1,
            )
            server.install_faults(plan)
            actions = make_workload(sup, server, apps, rng)
            for step in range(150):
                actions[step % len(actions)]()
                sup.pump()
                if rule.fires:
                    break
            server.clear_faults()
            sup.pump()
            log.extend(
                (c.crash_point, c.timestamp, c.cleanup)
                for c in sup.crashes[len(log):]
            )
        return log

    assert run("a") == run("b")
    assert checkpoint_oracle, "no checkpoint was checked"
