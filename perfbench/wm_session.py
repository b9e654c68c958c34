"""``wm_session``: the paper's own traffic.

swm runs under a :class:`Supervisor` with an on-disk
:class:`SessionStore` and a 3000x2400 Virtual Desktop.  Canned apps
(xterm, xclock, oclock, so the WM sees WM_COMMAND and SHAPE) are
launched and quit, moved and resized by themselves, retitled, moved by
the WM and panned, all over loopback; eight or nine are alive at any
time.  The WM subsystems and the
checkpoint store do most of the work; codec and transport do none.

Latency classes: ``map`` is a launch until the app's frame is
reparented and mapped, ``pan`` is ``Swm.pan_to``, ``void`` a client
move/resize or retitle, ``reply`` a client's translate-coordinates or
geometry read; ``wm_move`` and ``quit`` count in the all-ops figures.
"""

from __future__ import annotations

import os
import random
import shutil

from repro import Swm, XServer, load_template
from repro.clients import OClock, XClock, XTerm
from repro.session.store import SessionStore
from repro.session.supervisor import Supervisor
from repro.testing import adoption_problems, wm_consistency_problems

from harness import vm_hwm_kb

APPS = (XTerm, XClock, OClock)
DESK_W, DESK_H = 3000, 2400
SCREEN_W, SCREEN_H = 1152, 900
#: Apps alive after set-up; launches and quits alternate around it, so
#: the session's size, and with it the cost of a checkpoint, stays put.
INITIAL_APPS = 8

#: (kind, weight) of each operation.
MIX = (
    ("cycle", 12),      # launch (map) if 8 apps run, else quit one
    ("configure", 18),  # void: the app moves/resizes itself
    ("retitle", 15),    # void: WM_NAME change, redrawn by the WM
    ("wm_move", 15),    # the WM moves a frame (f.move, panner drag)
    ("pan", 10),        # pan the Virtual Desktop
    ("reply", 30),      # the app reads its position or geometry
)


class WmSession:
    #: The checkpoint store fsyncs: time the disk apart from the CPU.
    DISK = True

    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.rng = random.Random(f"wm_session/{seed}")
        self.workdir = workdir
        self.server = XServer(screens=[(SCREEN_W, SCREEN_H, 8)])
        db = load_template("OpenLook+")
        db.put("swm*virtualDesktop", f"{DESK_W}x{DESK_H}")
        places = os.path.join(workdir, "swm.places")
        self.store = SessionStore(os.path.join(workdir, "checkpoints"))

        def factory(server, store):
            return Swm(server, db, places_path=places, session_store=store)

        self.supervisor = Supervisor(self.server, self.store, factory)
        self.supervisor.start()
        self.supervisor.pump()
        self.apps = []
        self.serial = 0
        for _ in range(INITIAL_APPS):
            if not self._launch():
                raise RuntimeError("initial app was not managed")
        kinds, weights = zip(*MIX)
        self._kinds, self._weights = kinds, weights

    @property
    def wm(self):
        return self.supervisor.wm

    # -- operations -------------------------------------------------------

    def next_op(self):
        rng = self.rng
        kind = rng.choices(self._kinds, self._weights)[0]
        if kind == "cycle":
            if len(self.apps) <= INITIAL_APPS:
                return "map", self._launch
            victim = self.apps[rng.randrange(len(self.apps))]
            return "quit", lambda: self._quit(victim)
        app = self.apps[rng.randrange(len(self.apps))]
        if kind == "configure":
            geometry = (rng.randint(0, DESK_W - 500), rng.randint(0, DESK_H - 400),
                        rng.randint(120, 480), rng.randint(100, 360))
            return "void", lambda: self._supervised(app.move_resize, *geometry)
        if kind == "retitle":
            title = f"{app.program}-{rng.randint(0, 9999)}"
            return "void", lambda: self._supervised(app.set_title, title)
        if kind == "wm_move":
            x, y = rng.randint(0, DESK_W - 500), rng.randint(0, DESK_H - 400)
            return "wm_move", lambda: self._wm_move(app, x, y)
        if kind == "pan":
            x = rng.randint(0, DESK_W - SCREEN_W)
            y = rng.randint(0, DESK_H - SCREEN_H)
            return "pan", lambda: self._supervised(self.wm.pan_to, 0, x, y)
        if rng.random() < 0.5:
            return "reply", app.root_position
        return "reply", lambda: app.conn.get_geometry(app.wid)

    def _supervised(self, fn, *args):
        self.supervisor.run(fn, *args)
        self.supervisor.pump()

    def _launch(self) -> bool:
        rng = self.rng
        cls = APPS[rng.randrange(len(APPS))]
        self.serial += 1
        x, y = rng.randint(0, DESK_W - 600), rng.randint(0, DESK_H - 500)
        argv = [cls.program, "-geometry", f"+{x}+{y}",
                "-title", f"{cls.program}-{self.serial}"]
        app = self.supervisor.run(cls, self.server, argv)
        self.supervisor.pump()
        if app is None:
            return False
        self.apps.append(app)
        return self._is_managed(app)

    def _quit(self, app) -> bool:
        self.apps.remove(app)
        self.supervisor.run(app.quit)
        self.supervisor.pump()
        return app.wid not in self.wm.managed

    def _wm_move(self, app, x: int, y: int) -> bool:
        managed = self.wm.managed.get(app.wid)
        if managed is None:
            return False
        self._supervised(self.wm.move_managed_to, managed, x, y)
        return True

    def _is_managed(self, app) -> bool:
        managed = self.wm.managed.get(app.wid)
        if managed is None:
            return False
        frame = self.server.windows.get(managed.frame)
        client = self.server.windows.get(app.wid)
        return (frame is not None and frame.mapped and client is not None
                and frame.is_ancestor_of(client) and client.viewable)

    # -- checks and counts ------------------------------------------------

    def problems(self):
        wm = self.wm
        if wm is None:
            return ["the supervisor has no WM"]
        problems = list(wm_consistency_problems(wm))
        problems += adoption_problems(wm, [app.wid for app in self.apps])
        problems += [f"{app!r} is not managed" for app in self.apps
                     if not self._is_managed(app)]
        return problems

    def stats_snapshot(self) -> dict:
        return self.server.stats().snapshot()

    def signature_extra(self) -> dict:
        return {"saves": self.store.saves, "apps": len(self.apps),
                "restarts": self.supervisor.restarts}

    def peak_rss_kb(self) -> int:
        return vm_hwm_kb()

    def layer_totals(self) -> dict:
        return {}

    def client_pings(self) -> int:
        return 0

    def close(self) -> None:
        for app in self.apps:
            app.quit()
        self.apps = []
        shutil.rmtree(self.workdir, ignore_errors=True)
