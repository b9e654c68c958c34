"""T12 — the display router is free when you don't need it.

Not a paper claim: a regression guard for this repo's display router
(see ``repro.session.router``).  The multi-shard story must cost
nothing in the degenerate case: a single-shard ``DisplayRouter`` with
no faults installed adds **zero** X requests to the stack it fronts —
heartbeats are router-level bookkeeping, placement reads no server
state, and ``pump()`` is exactly one supervised pump.  The guard runs
an identical client workload through a bare supervised server and a
1-shard router at the same pump cadence and requires the per-request
counter maps to be *identical*, not merely close.

Counter-level guards are plain asserts and run under
``--benchmark-disable`` too.
"""

import os

from repro.clients import launch_command
from repro.core.wm import Swm
from repro.session.router import DisplayRouter
from repro.session.store import SessionStore
from repro.session.supervisor import Supervisor
from repro.xserver import XServer

from .conftest import SCREEN, report

#: One deterministic client mix: argv plus a per-step frame move.
WORKLOAD = [
    (["xterm", "-geometry", "80x24+100+80"], (340, 120)),
    (["xclock", "-geometry", "+700+40"], (520, 400)),
    (["xload", "-geometry", "+60+500"], (90, 640)),
    (["oclock"], (880, 220)),
]

PUMPS_AFTER = 12  # idle pumps after the workload (heartbeat rounds)


def drive(server, wm, pump, places):
    """The identical workload both stacks run: launch, pump, move each
    managed frame, pump, then idle pumps."""
    apps = []
    for argv, _ in WORKLOAD:
        apps.append(places(argv))
        pump()
    for app, (_, (x, y)) in zip(apps, WORKLOAD):
        managed = wm.managed.get(app.wid)
        assert managed is not None
        wm.move_managed_to(managed, x, y)
        pump()
    for _ in range(PUMPS_AFTER):
        pump()
    return apps


def bare_counters(tmp_path):
    server = XServer(screens=[SCREEN])
    store = SessionStore(os.path.join(tmp_path, "bare", "checkpoints"))
    places = os.path.join(tmp_path, "bare", "swm.places")

    def factory(server, store):
        return Swm(server, places_path=places, session_store=store)

    sup = Supervisor(server, store, factory, cleanup="abandon")
    sup.start()
    sup.pump()
    drive(server, sup.wm, sup.pump, lambda argv: launch_command(server, argv))
    return server.stats().snapshot()["requests"]


def routed_counters(tmp_path):
    router = DisplayRouter(
        shards=1, seed=1337, store_dir=os.path.join(tmp_path, "routed")
    )
    shard = router.shards[0]
    # DisplayRouter.place launches then pumps once (its supervised
    # launch path); the bare side pumps right after launch_command too,
    # so the cadence lines up request-for-request.
    drive(
        shard.server, shard.wm, router.pump,
        lambda argv: router.place(argv).app,
    )
    counters = shard.server.stats().snapshot()["requests"]
    router.close()
    return counters


def test_single_shard_router_is_counter_identical(tmp_path):
    bare = bare_counters(str(tmp_path))
    routed = routed_counters(str(tmp_path))
    missing = {k: v for k, v in bare.items() if routed.get(k) != v}
    extra = {k: v for k, v in routed.items() if bare.get(k) != v}
    assert routed == bare, (
        f"router added/changed requests: bare-side diff {missing},"
        f" router-side diff {extra}"
    )
    report(
        "T12 router overhead (N=1, no faults)",
        [
            f"{'request':>28}  count",
            *(
                f"{name:>28}  {count}"
                for name, count in sorted(bare.items())
            ),
            f"{'TOTAL':>28}  {sum(bare.values())}  (identical both stacks)",
        ],
    )
