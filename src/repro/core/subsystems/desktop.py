"""Virtual Desktop controller (§6).

Owns everything that makes the desktop bigger than the glass: the
Virtual Desktop window(s) per screen, panning (and its invariants: no
events to desktop-resident clients), the panner miniature, scrollbars,
sticky windows, multiple desktops, and the SWM_ROOT property contract
with vroot-aware toolkits (§6.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ... import icccm
from ...xserver import events as ev
from ...xserver.geometry import Point, Rect, Size, parse_geometry
from ..panner import Panner
from ..virtual import VirtualDesktop
from . import PRI_SUBSYSTEM, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from ..managed import ManagedWindow
    from ..wm import ScreenContext

#: Property swm writes on every client: the window ID of its effective
#: root (the Virtual Desktop window, or the real root for sticky
#: windows).  vroot-aware toolkits position popups against it (§6.3).
SWM_ROOT_PROPERTY = "SWM_ROOT"


class DesktopController(Subsystem):
    """Virtual-desktop state and operations for every screen."""

    name = "desktop"

    def event_handlers(self):
        return (
            (ev.ButtonPress, PRI_SUBSYSTEM, self._on_button_press),
            (ev.ButtonRelease, PRI_SUBSYSTEM, self._on_button_release),
            (ev.MotionNotify, PRI_SUBSYSTEM, self._on_motion),
        )

    # ------------------------------------------------------------------
    # Per-screen setup
    # ------------------------------------------------------------------

    def setup_virtual_desktop(self, sc: "ScreenContext") -> None:
        spec = sc.ctx.get_string([], "virtualDesktop")
        if not spec:
            return
        geometry = parse_geometry(spec)
        if geometry.width is None or geometry.height is None:
            raise ValueError(f"bad virtualDesktop size {spec!r}")
        count = max(1, sc.ctx.get_int([], "virtualDesktops", 1))
        for _ in range(count):
            sc.vdesks.append(
                VirtualDesktop(
                    self.conn,
                    sc.screen,
                    Size(geometry.width, geometry.height),
                    background=sc.ctx.get_string([], "desktopBackground"),
                )
            )
        sc.current_desktop = 0
        # Only the current desktop's window is mapped.
        for vdesk in sc.vdesks[1:]:
            self.conn.unmap_window(vdesk.window)

    def setup_scrollbars(self, sc: "ScreenContext") -> None:
        if sc.vdesk is None or not sc.ctx.get_bool([], "scrollbars", False):
            return
        from ..scrollbars import ScrollBars

        sc.scrollbars = ScrollBars(self.conn, sc.ctx, sc.vdesk)

    def setup_panner(self, sc: "ScreenContext") -> None:
        if sc.vdesk is None:
            return
        if not sc.ctx.get_bool([], "panner", True):
            return
        sc.panner = Panner(
            self.conn,
            sc.ctx,
            sc.vdesk,
            get_windows=lambda sc=sc: self.panner_windows(sc),
            move_window=lambda managed, x, y: self.wm.move_managed_to(
                managed, x, y
            ),
        )
        icccm.set_wm_class(self.conn, sc.panner.window, "panner", "Swm")
        icccm.set_wm_name(self.conn, sc.panner.window, "Virtual Desktop")
        self.wm.manage(sc.panner.window, internal=True, sticky=True)

    # ------------------------------------------------------------------
    # Panning
    # ------------------------------------------------------------------

    def pan_to(self, screen: int, x: int, y: int) -> None:
        sc = self.wm.screens[screen]
        if sc.vdesk is None:
            return
        # A pan is the paper's configure storm: batch the desktop move
        # and any panner updates into one server flush window.
        with self.conn.batch():
            sc.vdesk.pan_to(x, y)
            self.update_panner(sc)

    def pan_by(self, screen: int, dx: int, dy: int) -> None:
        sc = self.wm.screens[screen]
        if sc.vdesk is None:
            return
        with self.conn.batch():
            sc.vdesk.pan_by(dx, dy)
            self.update_panner(sc)

    # -- multiple desktops (extension; suggested by §6.3) ---------------

    def switch_desktop(self, screen: int, index: int) -> None:
        """Make desktop *index* current: unmap the old desktop window,
        map the new one.  Sticky windows (children of the real root)
        stay visible throughout."""
        sc = self.wm.screens[screen]
        if not sc.vdesks:
            return
        index %= len(sc.vdesks)
        if index == sc.current_desktop:
            return
        old = sc.vdesk
        sc.current_desktop = index
        new = sc.vdesk
        self.conn.unmap_window(old.window)
        self.conn.map_window(new.window)
        self.conn.lower_window(new.window)
        if sc.panner is not None:
            sc.panner.vdesk = new
        if sc.scrollbars is not None:
            sc.scrollbars.vdesk = new
        self.update_panner(sc)

    def send_to_desktop(self, managed: "ManagedWindow", index: int) -> None:
        """Move a window to another desktop, preserving its desktop
        coordinates."""
        sc = self.wm.screens[managed.screen]
        if not sc.vdesks or managed.sticky:
            return
        index %= len(sc.vdesks)
        if index == managed.desktop:
            return
        rect = managed.frame_rect
        self.reparent_frame(managed, sc.vdesks[index].window, rect.x, rect.y)
        managed.desktop = index
        self.guarded(
            self.conn.change_property,
            managed.client,
            SWM_ROOT_PROPERTY,
            "WINDOW",
            32,
            [sc.vdesks[index].window],
        )
        self.update_panner(sc)
        if not managed.is_internal:
            self.wm.note_session_change()

    def warp_to_managed(self, managed: "ManagedWindow") -> None:
        """Warp the pointer to a window, panning the desktop so it is
        visible first if necessary."""
        sc = self.wm.screens[managed.screen]
        rect = managed.frame_rect
        if sc.vdesk is not None and not managed.sticky:
            view = sc.vdesk.view_rect()
            if not view.contains_rect(rect) and not view.intersects(rect):
                sc.vdesk.center_view_on(
                    rect.x + rect.width // 2, rect.y + rect.height // 2
                )
                self.update_panner(sc)
        self.conn.warp_pointer(managed.frame, 4, 4)

    # ------------------------------------------------------------------
    # Sticky windows (§6.2)
    # ------------------------------------------------------------------

    def stick(self, managed: "ManagedWindow") -> None:
        if managed.sticky:
            return
        sc = self.wm.screens[managed.screen]
        managed.sticky = True
        if sc.vdesks:
            vdesk = sc.vdesks[managed.desktop]
            rect = managed.frame_rect
            view = vdesk.desktop_to_view(rect.x, rect.y)
            self.reparent_frame(managed, sc.root, view.x, view.y)
        self.set_swm_root(managed)
        self.update_panner(sc)
        if not managed.is_internal:
            self.wm.note_session_change()

    def unstick(self, managed: "ManagedWindow") -> None:
        if not managed.sticky:
            return
        sc = self.wm.screens[managed.screen]
        managed.sticky = False
        if sc.vdesk is not None:
            managed.desktop = sc.current_desktop
            rect = managed.frame_rect
            desk = sc.vdesk.view_to_desktop(rect.x, rect.y)
            self.reparent_frame(managed, sc.vdesk.window, desk.x, desk.y)
        self.set_swm_root(managed)
        self.update_panner(sc)
        if not managed.is_internal:
            self.wm.note_session_change()

    def reparent_frame(
        self, managed: "ManagedWindow", parent: int, x: int, y: int
    ) -> None:
        """Move the frame to *parent* at (x, y), model first; an X
        error (the frame raced away) is counted, and the reaper
        catches up."""
        managed.frame_rect = managed.frame_rect.moved_to(x, y)

        def reparent() -> None:
            with self.wm.configuring(managed, batch=False):
                self.conn.reparent_window(managed.frame, parent, x, y)

        self.guarded(reparent, what="reparent_window")

    def set_swm_root(self, managed: "ManagedWindow") -> None:
        """Maintain the SWM_ROOT property on the client (§6.3): updated
        whenever the client's effective root changes."""
        sc = self.wm.screens[managed.screen]
        if sc.vdesks and not managed.sticky:
            root = sc.vdesks[managed.desktop].window
        else:
            root = sc.root
        self.guarded(
            self.conn.change_property,
            managed.client, SWM_ROOT_PROPERTY, "WINDOW", 32, [root],
        )

    # ------------------------------------------------------------------
    # Panner plumbing
    # ------------------------------------------------------------------

    def panner_windows(
        self, sc: "ScreenContext"
    ) -> List[Tuple[Rect, "ManagedWindow"]]:
        """Desktop-resident windows for the panner miniature display."""
        from ...icccm.hints import NORMAL_STATE

        out = []
        for managed in self.wm.managed.values():
            if managed.screen != sc.number or managed.sticky:
                continue
            if managed.state != NORMAL_STATE:
                continue
            if managed.desktop != sc.current_desktop:
                continue
            out.append((managed.frame_rect, managed))
        return out

    def update_panner(self, sc: "ScreenContext") -> None:
        # Miniatures are computed lazily from live geometry; nothing to
        # push, but hooks (tests, renderers) may override this.
        pass

    def panner_for_window(
        self, window: int
    ) -> Optional[Tuple[Panner, "ScreenContext"]]:
        for sc in self.wm.screens:
            if sc.panner is not None and window == sc.panner.window:
                return sc.panner, sc
        return None

    def any_panner_drag(self) -> Optional[Panner]:
        for sc in self.wm.screens:
            if sc.panner is not None and sc.panner.drag is not None:
                return sc.panner
        return None

    def panner_local(self, panner: Panner, event) -> Point:
        return Point(event.x, event.y)

    def panner_local_root(
        self, panner: Panner, x_root: int, y_root: int
    ) -> Point:
        x, y, _ = self.conn.translate_coordinates(
            panner.vdesk.screen.root.id, panner.window, x_root, y_root
        )
        return Point(x, y)

    # ------------------------------------------------------------------
    # Event handlers (scrollbars + panner)
    # ------------------------------------------------------------------

    def _on_button_press(self, event: ev.ButtonPress) -> bool:
        # Scrollbar troughs pan on click (§6).
        for sc in self.wm.screens:
            if sc.scrollbars is not None and sc.scrollbars.owns(event.window):
                sc.scrollbars.click(event.window, event.x, event.y)
                self.update_panner(sc)
                return True
        # The panner handles its own clicks.
        panner_hit = self.panner_for_window(event.window)
        if panner_hit is not None:
            panner, _sc = panner_hit
            local = self.panner_local(panner, event)
            panner.press(event.button, local.x, local.y)
            return True
        return False

    def _on_button_release(self, event: ev.ButtonRelease) -> bool:
        panner_hit = self.panner_for_window(event.window)
        if panner_hit is None and self.any_panner_drag() is not None:
            panner = self.any_panner_drag()
            local = self.panner_local_root(panner, event.x_root, event.y_root)
            panner.release(local.x, local.y)
            return True
        if panner_hit is not None:
            panner, _sc = panner_hit
            if panner.drag is not None:
                local = self.panner_local(panner, event)
                panner.release(local.x, local.y)
            return True
        return False

    def _on_motion(self, event: ev.MotionNotify) -> bool:
        panner = self.any_panner_drag()
        if panner is not None:
            local = self.panner_local_root(panner, event.x_root, event.y_root)
            panner.motion(local.x, local.y)
            return True
        return False
