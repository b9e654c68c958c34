"""The canned application zoo.

Each class mimics the observable WM-facing behaviour of a classic X11
client: class/instance strings, default geometry, size hints, SHAPE
usage, toolkit option style.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

from ..icccm.hints import (
    P_BASE_SIZE,
    P_MIN_SIZE,
    P_RESIZE_INC,
    SizeHints,
)
from ..xserver import events as ev
from ..xserver.bitmap import Bitmap
from ..xserver.geometry import Size
from ..xserver.server import XServer
from .base import CommandLineError, SimApp, XVIEW_STYLE


class XClock(SimApp):
    """xclock: the canonical sticky-window candidate (§6.2)."""

    program = "xclock"
    class_name = "XClock"
    default_size = Size(164, 164)
    vroot_aware = False


class OClock(SimApp):
    """oclock: round, via the SHAPE extension (§5.1)."""

    program = "oclock"
    class_name = "Clock"
    default_size = Size(120, 120)

    def _decorate_window(self) -> None:
        _, _, width, height, _ = self.conn.get_geometry(self.wid)
        self.conn.shape_window(self.wid, Bitmap.disc(min(width, height)))


class XEyes(SimApp):
    """xeyes: also shaped; the paper pairs it with oclock."""

    program = "xeyes"
    class_name = "XEyes"
    default_size = Size(150, 100)

    def _decorate_window(self) -> None:
        _, _, width, height, _ = self.conn.get_geometry(self.wid)
        # Two eyes, flush left and right (they overlap when the window
        # is narrower than two heights).
        far = width - height
        rows = []
        for eye_row in Bitmap.disc(height).rows:
            lo = eye_row.index(1)
            row = bytearray(width)
            row[:height] = eye_row
            row[far + lo:width - lo] = eye_row[lo:height - lo]
            rows.append(row)
        self.conn.shape_window(self.wid, Bitmap(width, height, rows))


class XTerm(SimApp):
    """xterm: resize increments from the font cell, like the real one."""

    program = "xterm"
    class_name = "XTerm"
    default_size = Size(6 * 80 + 16, 13 * 24 + 16)
    vroot_aware = False

    def _extend_size_hints(self, hints: SizeHints) -> None:
        hints.flags |= P_RESIZE_INC | P_BASE_SIZE | P_MIN_SIZE
        hints.base_width = 16
        hints.base_height = 16
        hints.width_inc = 6
        hints.height_inc = 13
        hints.min_width = 16 + 6
        hints.min_height = 16 + 13


class XBiff(SimApp):
    """xbiff: the classic mail notifier for the sticky-window demo."""

    program = "xbiff"
    class_name = "XBiff"
    default_size = Size(48, 48)


class XLogo(SimApp):
    program = "xlogo"
    class_name = "XLogo"
    default_size = Size(100, 100)


class XLoad(SimApp):
    program = "xload"
    class_name = "XLoad"
    default_size = Size(160, 80)


class CmdTool(SimApp):
    """cmdtool: an XView client — different command-line dialect, the
    reason xplaces-style session management fails (§7)."""

    program = "cmdtool"
    class_name = "Cmdtool"
    default_size = Size(600, 400)
    toolkit = XVIEW_STYLE


class OIApp(SimApp):
    """An OI-toolkit client: vroot-aware popup positioning via the
    SWM_ROOT property (§6.3)."""

    program = "oidemo"
    class_name = "OIDemo"
    default_size = Size(300, 200)
    vroot_aware = True


class NaiveApp(SimApp):
    """A client that positions popups against the real root window —
    the failure mode §6.3 describes on a panned desktop."""

    program = "naivedemo"
    class_name = "NaiveDemo"
    default_size = Size(300, 200)
    vroot_aware = False


class MultiWindowApp(SimApp):
    """An application with a main window plus secondary top-levels that
    it lays out with USPosition hints — the §6.3 pattern that pins such
    apps to the desktop's upper-left quadrant."""

    program = "multiwin"
    class_name = "MultiWin"
    default_size = Size(400, 300)

    def __init__(self, server: XServer, argv=None, host: str = "localhost",
                 screen: int = 0, **kwargs):
        super().__init__(server, argv, host, screen, **kwargs)
        self.secondary: List[int] = []

    def open_secondary(self, x: int, y: int, width: int = 200,
                       height: int = 150, user_position: bool = True) -> int:
        """Open an auxiliary top-level at an absolute position."""
        from .. import icccm
        from ..icccm.hints import P_POSITION, US_POSITION, SizeHints

        wid = self.conn.create_window(
            self.conn.root_window(self.screen_number),
            x, y, width, height, border_width=1,
        )
        icccm.set_wm_class(self.conn, wid, f"{self.program}-aux", self.class_name)
        icccm.set_wm_name(self.conn, wid, "auxiliary")
        flags = US_POSITION if user_position else P_POSITION
        icccm.set_wm_normal_hints(
            self.conn, wid, SizeHints(flags=flags, x=x, y=y)
        )
        icccm.set_wm_transient_for(self.conn, wid, self.wid)
        self.conn.map_window(wid)
        self.secondary.append(wid)
        return wid


#: program name -> app class; the session launcher resolves WM_COMMAND
#: argv[0] through this table (its PATH, in effect).
APP_REGISTRY: Dict[str, Type[SimApp]] = {
    cls.program: cls
    for cls in (
        XClock,
        OClock,
        XEyes,
        XTerm,
        XBiff,
        XLogo,
        XLoad,
        CmdTool,
        OIApp,
        NaiveApp,
        MultiWindowApp,
    )
}


def launch_command(
    server: XServer,
    argv: Sequence[str],
    host: str = "localhost",
    screen: int = 0,
) -> SimApp:
    """Start the app named by argv[0]; KeyError if not installed."""
    if not argv:
        raise CommandLineError("empty command")
    program = argv[0].rsplit("/", 1)[-1]
    try:
        cls = APP_REGISTRY[program]
    except KeyError:
        raise CommandLineError(f"command not found: {program}") from None
    return cls(server, argv, host=host, screen=screen)
