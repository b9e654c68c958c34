"""Per-client state the window manager keeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..icccm.hints import NORMAL_STATE, SizeHints, WMHints
from ..xserver.geometry import Point, Rect, Size

if TYPE_CHECKING:  # pragma: no cover
    from .objects.panel import Panel
    from .icons import Icon


@dataclass
class ManagedWindow:
    """One client window under swm management.

    ``frame`` is the decoration panel's window; the client window is
    reparented into the decoration's interior ``client`` panel.  For
    non-sticky windows the frame is a child of the Virtual Desktop
    window and its coordinates are *desktop* coordinates; sticky frames
    are children of the real root (§6.2).

    The record is also the WM's window model, as twm's ``TwmWindow``
    keeps ``frame_x/y/width/height``: ``frame_rect`` (in the frame's
    parent's coordinates) and ``client_size`` are what the WM last
    asked the server for, updated before the request goes out, and
    ``command`` / ``machine`` (WM_COMMAND as a shell string, and
    WM_CLIENT_MACHINE) follow the client's PropertyNotify.  The WM
    reads the server for them only at manage, and after a request that
    carried a change failed (``Swm.configuring``).
    """

    client: int
    frame: int
    screen: int
    decoration: "Panel"
    client_offset: Point
    frame_rect: Rect
    client_size: Size
    command: Optional[str] = None
    machine: Optional[str] = None
    instance: str = ""
    class_name: str = ""
    name: str = ""
    state: int = NORMAL_STATE
    sticky: bool = False
    #: Which Virtual Desktop the frame lives on (multiple-desktop
    #: extension; always 0 with a single desktop).
    desktop: int = 0
    shaped: bool = False
    zoomed: bool = False
    is_internal: bool = False  # swm's own windows (root panels, panner)
    decoration_name: str = ""
    resize_corners: bool = False
    saved_rect: Optional[Rect] = None
    icon: Optional["Icon"] = None
    original_border_width: int = 0
    size_hints: SizeHints = field(default_factory=SizeHints)
    wm_hints: WMHints = field(default_factory=WMHints)

    def object_named(self, name: str):
        return self.decoration.find(name)

    def __repr__(self) -> str:
        return (
            f"<ManagedWindow client={self.client:#x} frame={self.frame:#x}"
            f" {self.instance!r} state={self.state} sticky={self.sticky}>"
        )
