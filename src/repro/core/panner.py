"""The Virtual Desktop panner (§6.1, Figure 3).

The panner shows a miniature of the whole desktop: tiny rectangles for
every window plus an outline marking the current viewport.  Button 1
drags the viewport outline (panning on release); button 2 on a
miniature starts a window move — dropping inside the panner repositions
the window anywhere on the desktop, and dragging *out* of the panner
switches to a full-size outline on the visible screen, fine-tuning the
placement (and vice versa: a move started on the client window can be
dropped into the panner).

Resizing the panner resizes the underlying Virtual Desktop (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..toolkit.attributes import AttributeContext
from ..xserver.geometry import Point, Rect, Size
from .virtual import VirtualDesktop

if TYPE_CHECKING:  # pragma: no cover
    from ..xserver.client import ClientConnection
    from .managed import ManagedWindow

#: Desktop pixels per panner pixel (the fixed miniature scale).
DEFAULT_SCALE = 16


@dataclass
class PannerDrag:
    """An in-progress drag within (or out of) the panner."""

    kind: str  # "viewport" or "window"
    managed: Optional["ManagedWindow"] = None
    #: Last pointer position, in panner-local coordinates.
    x: int = 0
    y: int = 0
    #: True once the pointer left the panner (full-size outline mode).
    outside: bool = False
    #: Grab offset within the miniature/viewport, in desktop pixels.
    grip_dx: int = 0
    grip_dy: int = 0


class Panner:
    """The panner object for one screen's Virtual Desktop."""

    def __init__(
        self,
        conn: "ClientConnection",
        ctx: AttributeContext,
        vdesk: VirtualDesktop,
        get_windows: Callable[[], List[Tuple[Rect, "ManagedWindow"]]],
        move_window: Callable[["ManagedWindow", int, int], None],
        scale: Optional[int] = None,
    ):
        self.conn = conn
        self.ctx = ctx
        self.vdesk = vdesk
        self.get_windows = get_windows
        self.move_window = move_window
        self.scale = scale or ctx.get_int(["panner", "panner"], "scale", DEFAULT_SCALE)
        self.drag: Optional[PannerDrag] = None

        width = max(8, vdesk.size.width // self.scale)
        height = max(8, vdesk.size.height // self.scale)
        # The panner's client window; the WM reparents/manages it like
        # any other client (and marks it sticky so it never pans away).
        from ..xserver.event_mask import EventMask

        self.window = conn.create_window(
            vdesk.screen.root.id,
            vdesk.screen.width - width - 8,
            vdesk.screen.height - height - 8,
            width,
            height,
            border_width=1,
            event_mask=EventMask.ButtonPress
            | EventMask.ButtonRelease
            | EventMask.PointerMotion
            | EventMask.Exposure,
            background=ctx.get_string(["panner", "panner"], "background", "white"),
        )

    # -- coordinate mapping ---------------------------------------------------

    def panner_size(self) -> Size:
        _, _, width, height, _ = self.conn.get_geometry(self.window)
        return Size(width, height)

    def desktop_to_panner(self, x: int, y: int) -> Point:
        return Point(x // self.scale, y // self.scale)

    def panner_to_desktop(self, x: int, y: int) -> Point:
        return Point(x * self.scale, y * self.scale)

    def miniature_rects(self) -> List[Tuple[Rect, "ManagedWindow"]]:
        """Miniatures of all windows currently on the desktop."""
        minis = []
        for rect, managed in self.get_windows():
            mini = Rect(
                rect.x // self.scale,
                rect.y // self.scale,
                max(1, rect.width // self.scale),
                max(1, rect.height // self.scale),
            )
            minis.append((mini, managed))
        return minis

    def viewport_outline(self) -> Rect:
        view = self.vdesk.view_rect()
        return Rect(
            view.x // self.scale,
            view.y // self.scale,
            max(1, view.width // self.scale),
            max(1, view.height // self.scale),
        )

    def miniature_at(self, x: int, y: int) -> Optional["ManagedWindow"]:
        """Topmost miniature under panner-local (x, y)."""
        hit = None
        for mini, managed in self.miniature_rects():
            if mini.contains(x, y):
                hit = managed
        return hit

    # -- interaction ------------------------------------------------------------

    def press(self, button: int, x: int, y: int) -> Optional[PannerDrag]:
        """Button press at panner-local (x, y)."""
        if button == 1:
            self.drag = PannerDrag(kind="viewport", x=x, y=y)
            return self.drag
        if button == 2:
            managed = self.miniature_at(x, y)
            if managed is None:
                return None
            desk = self.panner_to_desktop(x, y)
            frame_rect = managed.frame_rect
            self.drag = PannerDrag(
                kind="window",
                managed=managed,
                x=x,
                y=y,
                grip_dx=desk.x - frame_rect.x,
                grip_dy=desk.y - frame_rect.y,
            )
            return self.drag
        return None

    def motion(self, x: int, y: int) -> None:
        """Pointer motion during a drag, panner-local coordinates (may
        run outside the panner bounds)."""
        if self.drag is None:
            return
        size = self.panner_size()
        self.drag.x = x
        self.drag.y = y
        self.drag.outside = not (0 <= x < size.width and 0 <= y < size.height)

    def release(self, x: int, y: int) -> Optional[str]:
        """Button release: commit the drag.  Returns what happened
        ("panned", "moved", "moved-outside", or None)."""
        drag = self.drag
        if drag is None:
            return None
        self.drag = None
        self.motion_commit = (x, y)
        size = self.panner_size()
        inside = 0 <= x < size.width and 0 <= y < size.height

        if drag.kind == "viewport":
            desk = self.panner_to_desktop(x, y)
            self.vdesk.center_view_on(desk.x, desk.y)
            return "panned"

        managed = drag.managed
        if managed is None:
            return None
        if inside:
            desk = self.panner_to_desktop(x, y)
            self.move_window(
                managed, desk.x - drag.grip_dx, desk.y - drag.grip_dy
            )
            return "moved"
        # Released outside the panner: full-size outline mode — the
        # pointer position is screen coordinates; place the window at
        # the corresponding desktop position in the current view.
        panner_origin = self._panner_screen_origin()
        screen_x = panner_origin.x + x
        screen_y = panner_origin.y + y
        desk = self.vdesk.view_to_desktop(screen_x, screen_y)
        self.move_window(managed, desk.x, desk.y)
        return "moved-outside"

    def _panner_screen_origin(self) -> Point:
        x, y, _ = self.conn.translate_coordinates(
            self.window, self.vdesk.screen.root.id, 0, 0
        )
        return Point(x, y)

    # -- resizing -------------------------------------------------------------------

    def resized(self, width: int, height: int) -> None:
        """The panner window was resized: resize the Virtual Desktop to
        match at the fixed scale (§6.1)."""
        self.vdesk.resize(width * self.scale, height * self.scale)

    def __repr__(self) -> str:
        size = self.panner_size()
        return f"<Panner {size.width}x{size.height} scale={self.scale}>"
