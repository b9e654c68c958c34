"""``stack_churn``: toolkit widget trees under churn, over loopback.

swm (with a Virtual Desktop) manages two toolkit-style top-levels, each
holding 128 mapped child windows that select Exposure, PointerMotion,
EnterWindow and LeaveWindow, like swm's own panel-object trees.  The
load mixes child configures and ``batch()`` configure storms (writes)
with ``warp_pointer`` moves and ``query_pointer`` hit tests (reads), so
both share the window tree's caches: the window, region, batch and
pipeline layers do most of the work, the WM almost none.  Events are
drained by a ``drain`` operation, about one op in eight.

A small share of dialogs (``map``: a transient top-level opened until
swm framed and mapped it) and Virtual Desktop pans (``pan``) keep every
end-to-end latency class present; ``void`` covers configures, storms
and warps, ``reply`` a hit test by each toolkit.
"""

from __future__ import annotations

import random

from repro import Swm, XServer, load_template
from repro import icccm
from repro.icccm.hints import P_POSITION, SizeHints
from repro.xserver import ClientConnection, EventMask
from repro.xserver.events import ABOVE
from repro.xserver.xid import NONE
from repro.testing import wm_consistency_problems

from harness import vm_hwm_kb

SCREEN_W, SCREEN_H = 1152, 900
COLUMNS, ROWS = 16, 8
CELL_W, CELL_H = 56, 44
TOP_W, TOP_H = COLUMNS * CELL_W, ROWS * CELL_H
TOP_ORIGINS = ((24, 40), (96, 470))
CHILD_MASK = (EventMask.Exposure | EventMask.PointerMotion
              | EventMask.EnterWindow | EventMask.LeaveWindow)
#: How far a configure may move or grow a child past its grid cell.
JITTER = 12
MAX_DIALOGS = 2
#: One query op in this many has its answers checked by brute force.
CHECK_EVERY = 4

MIX = (
    ("configure", 36),
    ("storm", 8),
    ("warp", 17),
    ("query", 20),
    ("drain", 13),
    ("pan", 2),
    ("dialog", 4),      # open (map) or close, keeping <= MAX_DIALOGS
)


class Toolkit:
    """One toolkit client: a top-level and its grid of widgets."""

    def __init__(self, server: XServer, index: int):
        self.conn = conn = ClientConnection(server, f"toolkit-{index}")
        root = conn.root_window(0)
        x, y = TOP_ORIGINS[index]
        self.top = conn.create_window(
            root, x, y, TOP_W, TOP_H, border_width=1,
            event_mask=EventMask.StructureNotify,
        )
        icccm.set_wm_class(conn, self.top, f"panel{index}", "Toolkit")
        icccm.set_wm_name(conn, self.top, f"panel {index}")
        icccm.set_wm_normal_hints(
            conn, self.top, SizeHints(flags=P_POSITION, x=x, y=y)
        )
        #: child wid -> last geometry written (x, y, width, height).
        self.children = {}
        for row in range(ROWS):
            for column in range(COLUMNS):
                geometry = (column * CELL_W + 4, row * CELL_H + 4,
                            CELL_W - 10, CELL_H - 10)
                wid = conn.create_window(self.top, *geometry, border_width=1,
                                         event_mask=CHILD_MASK)
                self.children[wid] = geometry
        self.wids = list(self.children)
        conn.map_subwindows(self.top)
        conn.map_window(self.top)
        self.dialogs = []

    def configure(self, wid: int, x: int, y: int, width: int, height: int,
                  raise_it: bool) -> None:
        extra = {"stack_mode": ABOVE} if raise_it else {}
        self.conn.configure_window(wid, x=x, y=y, width=width, height=height,
                                   **extra)
        self.children[wid] = (x, y, width, height)


def _origin(window):
    """Root origin by walking the parent chain; no caches involved."""
    x = y = 0  # server semantics: origin(parent) + parent border + rect
    while window.parent is not None:
        x += window.rect.x + window.parent.border_width
        y += window.rect.y + window.parent.border_width
        window = window.parent
    return x + window.rect.x, y + window.rect.y


def brute_force_child(server: XServer, wid: int) -> int:
    """The child of *wid* under the pointer, by a linear walk over its
    children, top of the stack first (what QueryPointer must answer)."""
    parent = server.windows[wid]
    ox, oy = _origin(parent)
    px, py = server.pointer.x, server.pointer.y
    for child in reversed(parent.children):
        if not child.mapped:
            continue
        bw = child.border_width
        left = ox + parent.border_width + child.rect.x - bw
        top = oy + parent.border_width + child.rect.y - bw
        if (left <= px < left + child.rect.width + 2 * bw
                and top <= py < top + child.rect.height + 2 * bw):
            return child.id
    return NONE


class StackChurn:
    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.rng = random.Random(f"stack_churn/{seed}")
        self.server = XServer(screens=[(SCREEN_W, SCREEN_H, 8)])
        db = load_template("OpenLook+")
        db.put("swm*virtualDesktop", "3000x2400")
        self.wm = Swm(self.server, db, places_path=f"{workdir}/swm.places")
        self.toolkits = [Toolkit(self.server, index) for index in (0, 1)]
        self.wm.process_pending()
        self.queries = 0
        self.dialog_serial = 0
        kinds, weights = zip(*MIX)
        self._kinds, self._weights = kinds, weights

    # -- operations -------------------------------------------------------

    def next_op(self):
        rng = self.rng
        kind = rng.choices(self._kinds, self._weights)[0]
        kit = self.toolkits[rng.randrange(2)]
        if kind == "configure":
            index = rng.randrange(len(kit.wids))
            args = self._geometry(rng, index) + (rng.random() < 0.1,)
            return "void", lambda: kit.configure(kit.wids[index], *args)
        if kind == "storm":
            writes = []
            for _ in range(rng.randint(8, 24)):
                index = rng.randrange(len(kit.wids))
                writes.append((kit.wids[index],)
                              + self._geometry(rng, index) + (False,))
            return "void", lambda: self._storm(kit, writes)
        if kind == "warp":
            wid = kit.wids[rng.randrange(len(kit.wids))]
            dx, dy = rng.randint(0, CELL_W - 12), rng.randint(0, CELL_H - 12)
            return "void", lambda: kit.conn.warp_pointer(wid, dx, dy)
        if kind == "query":
            return "reply", self._query
        if kind == "drain":
            return "drain", self._drain
        if kind == "pan":
            x, y = rng.randint(0, 160), rng.randint(0, 120)
            return "pan", lambda: self.wm.pan_to(0, x, y)
        if len(kit.dialogs) < MAX_DIALOGS and (
                not kit.dialogs or rng.random() < 0.5):
            x, y = rng.randint(200, 700), rng.randint(150, 500)
            return "map", lambda: self._open_dialog(kit, x, y)
        return "close", lambda: self._close_dialog(kit)

    @staticmethod
    def _geometry(rng, index: int):
        """A new geometry near the child's grid cell, overlapping its
        neighbours now and then, as widgets resizing in a layout do."""
        row, column = divmod(index, COLUMNS)
        return (column * CELL_W + rng.randint(-JITTER, JITTER),
                row * CELL_H + rng.randint(-JITTER, JITTER),
                rng.randint(CELL_W // 2, CELL_W + JITTER),
                rng.randint(CELL_H // 2, CELL_H + JITTER))

    def _storm(self, kit: Toolkit, writes) -> None:
        with kit.conn.batch():
            for write in writes:
                kit.configure(*write)

    def _query(self) -> bool:
        """Each toolkit asks which of its widgets is under the pointer.
        A configure refreshes the stacking index only along the
        pointer's path, so one top-level's index is usually fresh and
        the other's stale: asking both keeps the op's cost from
        flipping between the two cases."""
        answers = [kit.conn.query_pointer(kit.top)["child"]
                   for kit in self.toolkits]
        self.queries += 1
        if self.queries % CHECK_EVERY:
            return True
        return answers == [brute_force_child(self.server, kit.top)
                           for kit in self.toolkits]

    def _drain(self) -> None:
        for kit in self.toolkits:
            kit.conn.events()
        self.wm.process_pending()

    def _open_dialog(self, kit: Toolkit, x: int, y: int) -> bool:
        conn = kit.conn
        self.dialog_serial += 1
        wid = conn.create_window(conn.root_window(0), x, y, 240, 120,
                                 border_width=1,
                                 event_mask=EventMask.StructureNotify)
        icccm.set_wm_class(conn, wid, "dialog", "Toolkit")
        icccm.set_wm_name(conn, wid, f"dialog {self.dialog_serial}")
        icccm.set_wm_transient_for(conn, wid, kit.top)
        conn.map_window(wid)
        self.wm.process_pending()
        kit.dialogs.append(wid)
        managed = self.wm.managed.get(wid)
        frame = managed and self.server.windows.get(managed.frame)
        return bool(frame and frame.mapped and frame.is_ancestor_of(
            self.server.windows[wid]))

    def _close_dialog(self, kit: Toolkit) -> bool:
        wid = kit.dialogs.pop(0)
        kit.conn.destroy_window(wid)
        self.wm.process_pending()
        return wid not in self.wm.managed

    # -- checks and counts ------------------------------------------------

    def problems(self):
        problems = list(wm_consistency_problems(self.wm))
        for kit in self.toolkits:
            if kit.top not in self.wm.managed:
                problems.append(f"top-level {kit.top:#x} is not managed")
            for wid, wanted in kit.children.items():
                x, y, width, height, _ = kit.conn.get_geometry(wid)
                if (x, y, width, height) != wanted:
                    problems.append(
                        f"child {wid:#x} is at {(x, y, width, height)},"
                        f" last written {wanted}"
                    )
        return problems

    def stats_snapshot(self) -> dict:
        return self.server.stats().snapshot()

    def signature_extra(self) -> dict:
        return {"queries": self.queries, "dialogs": self.dialog_serial}

    def peak_rss_kb(self) -> int:
        return vm_hwm_kb()

    def layer_totals(self) -> dict:
        return {}

    def client_pings(self) -> int:
        return 0

    def close(self) -> None:
        for kit in self.toolkits:
            kit.conn.close()
        self.wm.conn.close()
