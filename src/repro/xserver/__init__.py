"""A simulated X11 server: the substrate for the swm reproduction.

Public surface::

    server = XServer(screens=[(1152, 900, 8)])
    conn = ClientConnection(server, "xclock")
    wid = conn.create_window(conn.root_window(), 10, 10, 100, 100)
    conn.map_window(wid)
"""

from .atoms import AtomTable
from .bitmap import Bitmap, lookup_bitmap, register_bitmap
from .client import ClientConnection, QueueEmpty
from .errors import (
    BadAccess,
    BadAlloc,
    BadAtom,
    BadMatch,
    BadValue,
    BadWindow,
    XError,
)
from .event_mask import EventMask
from .faults import (
    ConnectionClosed,
    FaultPlan,
    FaultRule,
    FaultStage,
)
from .fuzz import ProtocolFuzzer
from .geometry import Geometry, Point, Rect, Size, parse_geometry
from .pipeline import (
    BackpressureStage,
    CoalescingStage,
    EventPipeline,
    InstrumentationStage,
)
from .quotas import QuotaExceeded, QuotaLimits, QuotaManager
from .screen import Screen
from .server import MAX_WINDOW_SIZE, XServer
from .shape import ShapeRegion
from .stats import ServerStats
from .window import TreeCaches, Window
from .xid import NONE, POINTER_ROOT

__all__ = [
    "AtomTable",
    "BackpressureStage",
    "Bitmap",
    "BadAccess",
    "BadAlloc",
    "BadAtom",
    "BadMatch",
    "BadValue",
    "BadWindow",
    "ClientConnection",
    "CoalescingStage",
    "ConnectionClosed",
    "EventMask",
    "EventPipeline",
    "FaultPlan",
    "FaultRule",
    "FaultStage",
    "Geometry",
    "InstrumentationStage",
    "ProtocolFuzzer",
    "QueueEmpty",
    "QuotaExceeded",
    "QuotaLimits",
    "QuotaManager",
    "ServerStats",
    "MAX_WINDOW_SIZE",
    "NONE",
    "POINTER_ROOT",
    "Point",
    "Rect",
    "Screen",
    "ShapeRegion",
    "Size",
    "TreeCaches",
    "Window",
    "XError",
    "XServer",
    "lookup_bitmap",
    "parse_geometry",
    "register_bitmap",
]
