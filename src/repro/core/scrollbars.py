"""Desktop scrollbars (§6).

"This large root window can be panned using scrollbars, a two
dimensional panner object, or window manager functions."  The
scrollbars are two thin windows glued to the right and bottom screen
edges (sticky by construction: children of the real root).  A click at
fraction *f* of the trough pans the viewport to *f* of the pannable
range; the thumb's position/extent reflect the current view.

Enable with ``swm*scrollbars: True``.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from ..toolkit.attributes import AttributeContext
from ..xserver.event_mask import EventMask
from ..xserver.geometry import Rect
from .virtual import VirtualDesktop

if TYPE_CHECKING:  # pragma: no cover
    from ..xserver.client import ClientConnection

#: Trough thickness in pixels.
THICKNESS = 12


class ScrollBars:
    """The pair of desktop scrollbars for one screen."""

    def __init__(
        self,
        conn: "ClientConnection",
        ctx: AttributeContext,
        vdesk: VirtualDesktop,
    ):
        self.conn = conn
        self.vdesk = vdesk
        screen = vdesk.screen
        background = ctx.get_string(["scrollbar", "scrollbar"],
                                    "background", "gray")
        mask = EventMask.ButtonPress | EventMask.ButtonRelease
        self.vertical = conn.create_window(
            screen.root.id,
            screen.width - THICKNESS,
            0,
            THICKNESS,
            screen.height - THICKNESS,
            event_mask=mask,
            background=background,
            cursor="sb_v_double_arrow",
        )
        self.horizontal = conn.create_window(
            screen.root.id,
            0,
            screen.height - THICKNESS,
            screen.width - THICKNESS,
            THICKNESS,
            event_mask=mask,
            background=background,
            cursor="sb_h_double_arrow",
        )
        conn.map_window(self.vertical)
        conn.map_window(self.horizontal)

    # -- geometry ------------------------------------------------------------

    def trough_length(self, vertical: bool) -> int:
        if vertical:
            return self.vdesk.screen.height - THICKNESS
        return self.vdesk.screen.width - THICKNESS

    def thumb(self, vertical: bool) -> Rect:
        """The thumb rect in trough coordinates: position and extent
        proportional to the view within the desktop."""
        trough = self.trough_length(vertical)
        if vertical:
            desktop = self.vdesk.size.height
            view = self.vdesk.screen.height
            offset = self.vdesk.pan_y
        else:
            desktop = self.vdesk.size.width
            view = self.vdesk.screen.width
            offset = self.vdesk.pan_x
        extent = max(4, trough * view // desktop)
        position = trough * offset // desktop
        if vertical:
            return Rect(0, position, THICKNESS, extent)
        return Rect(position, 0, extent, THICKNESS)

    # -- interaction -----------------------------------------------------------

    def click(self, window: int, x: int, y: int) -> Optional[Tuple[int, int]]:
        """Handle a ButtonPress in a trough (window-local coords):
        center the view on the clicked fraction.  Returns the new pan
        offset, or None if the window is not a scrollbar."""
        if window == self.vertical:
            fraction = y / max(1, self.trough_length(True))
            max_x, max_y = self.vdesk.max_pan()
            target = round(
                fraction * self.vdesk.size.height
                - self.vdesk.screen.height / 2
            )
            return self.vdesk.pan_to(self.vdesk.pan_x, target)
        if window == self.horizontal:
            fraction = x / max(1, self.trough_length(False))
            target = round(
                fraction * self.vdesk.size.width
                - self.vdesk.screen.width / 2
            )
            return self.vdesk.pan_to(target, self.vdesk.pan_y)
        return None

    def owns(self, window: int) -> bool:
        return window in (self.vertical, self.horizontal)

    def __repr__(self) -> str:
        return f"<ScrollBars for {self.vdesk!r}>"
