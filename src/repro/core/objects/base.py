"""The generic swm object (§2, §4).

swm deals with four object types — panel, button, text, menu — and all
of them are treated uniformly: each object has its own attributes
(color, font, cursor) and its own *bindings* attribute describing the
actions taken when mouse buttons or keys are used while the pointer is
in the object.  swm does not know whether an object sits in a window
decoration or an icon; the object itself requests actions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TypeVar, TYPE_CHECKING

from ...toolkit.attributes import AttributeContext
from ...xserver.event_mask import EventMask
from ...xserver.geometry import Rect, Size
from ..bindings import Binding, parse_bindings

if TYPE_CHECKING:  # pragma: no cover
    from ...xserver.client import ClientConnection

#: Event mask every realized object window selects: objects are the
#: binding contexts, so they want buttons, keys and crossings.
OBJECT_EVENT_MASK = (
    EventMask.ButtonPress
    | EventMask.ButtonRelease
    | EventMask.ButtonMotion
    | EventMask.KeyPress
    | EventMask.KeyRelease
    | EventMask.EnterWindow
    | EventMask.LeaveWindow
    | EventMask.Exposure
)

LABEL_ATOM = "SWM_LABEL"

T = TypeVar("T")


class SwmObject:
    """Base class for the four swm object types."""

    type_name = "object"
    default_padding = 2

    def __init__(self, ctx: AttributeContext, name: str):
        self.ctx = ctx
        self.name = name
        self.window: Optional[int] = None
        self.parent: Optional["SwmObject"] = None
        self.children: List["SwmObject"] = []
        self._bindings_override: Optional[List[Binding]] = None
        self._resolved: Dict[str, object] = {}
        self._resolved_generation = -1

    # -- resource path ----------------------------------------------------

    @property
    def path(self) -> List[str]:
        """Objects are addressed as ``<type>.<name>`` in resources
        (``swm*button.foo.bindings``), regardless of nesting."""
        return [self.type_name, self.name]

    # -- attributes ----------------------------------------------------------

    def attr_string(self, attribute: str, default: Optional[str] = None):
        return self.ctx.get_string(self.path, attribute, default)

    def attr_bool(self, attribute: str, default: bool = False) -> bool:
        return self.ctx.get_bool(self.path, attribute, default)

    def attr_int(self, attribute: str, default: int = 0) -> int:
        return self.ctx.get_int(self.path, attribute, default)

    @property
    def background(self):
        return self.ctx.get_color(self.path, "background", "white")

    @property
    def foreground(self):
        return self.ctx.get_color(self.path, "foreground", "black")

    @property
    def font(self):
        return self.ctx.get_font(self.path)

    @property
    def cursor(self) -> str:
        return self.ctx.get_cursor(self.path)

    def resolved(self, key: str, compute: Callable[[], T]) -> T:
        """``compute()``, resolved once and kept under *key*.

        The values come from the resource database, which does not
        change while the WM runs: all of them are dropped when it does
        (its ``_generation`` moves), and the natural size also by the
        object's own content setters (:meth:`content_changed`)."""
        generation = self.ctx.db._generation
        if generation != self._resolved_generation:
            self._resolved = {}
            self._resolved_generation = generation
        try:
            return self._resolved[key]  # type: ignore[return-value]
        except KeyError:
            value = self._resolved[key] = compute()
            return value

    def content_changed(self) -> None:
        """The label, text or image changed: measure again."""
        self._resolved.pop("size", None)

    @property
    def padding(self) -> int:
        return self.resolved(
            "padding",
            lambda: self.ctx.get_int(
                self.path, "padding", self.default_padding
            ),
        )

    @property
    def border_width(self) -> int:
        return self.ctx.get_int(self.path, "borderWidth", 1)

    # -- bindings ---------------------------------------------------------------

    @property
    def bindings(self) -> List[Binding]:
        """Parsed bindings: a dynamic override if one was installed
        (§4.4 — buttons can change functionality at run time), else the
        resource database's bindings attribute."""
        if self._bindings_override is not None:
            return self._bindings_override
        return self.resolved("bindings", self._parse_bindings)

    def _parse_bindings(self) -> List[Binding]:
        raw = self.attr_string("bindings", "")
        return parse_bindings(raw) if raw else []

    def set_bindings(self, value) -> None:
        """Dynamically replace this object's bindings; pass a raw
        bindings string or a pre-parsed list."""
        if isinstance(value, str):
            self._bindings_override = parse_bindings(value) if value else []
        else:
            self._bindings_override = list(value)

    def clear_binding_override(self) -> None:
        self._bindings_override = None

    # -- geometry / realization ----------------------------------------------------

    def natural_size(self) -> Size:
        """The object's preferred size, measured once (see
        :meth:`resolved`)."""
        return self.resolved("size", self.measure)

    def measure(self) -> Size:
        """The preferred size; subclasses compute it from content and
        font metrics."""
        return Size(16, 16)

    def realize(
        self,
        conn: "ClientConnection",
        parent_window: int,
        rect: Rect,
    ) -> int:
        """Create the object's X window inside *parent_window* and map it."""
        window = self.create(conn, parent_window, rect)
        conn.map_window(window)
        return window

    def create(
        self,
        conn: "ClientConnection",
        parent_window: int,
        rect: Rect,
    ) -> int:
        """Create the object's X window inside *parent_window*, unmapped."""
        self.window = conn.create_window(
            parent_window,
            rect.x,
            rect.y,
            max(1, rect.width),
            max(1, rect.height),
            border_width=0,
            event_mask=OBJECT_EVENT_MASK,
            background=self.attr_string("background"),
            cursor=self.attr_string("cursor"),
        )
        # §5.1: "Each object can have a separate shape mask attribute
        # which is simply a bitmap image of the shape of the object."
        shape_mask = self.ctx.get_bitmap(self.path, "shapeMask")
        if shape_mask is not None:
            conn.shape_window(self.window, shape_mask)
        label = self.display_label()
        if label:
            conn.set_string_property(self.window, LABEL_ATOM, label)
        return self.window

    def display_label(self) -> Optional[str]:
        """What the renderer should show inside the object."""
        return None

    def update_label(self, conn: "ClientConnection") -> None:
        if self.window is None:
            return
        label = self.display_label()
        if label:
            conn.set_string_property(self.window, LABEL_ATOM, label)
        else:
            conn.delete_property(self.window, LABEL_ATOM)

    # -- tree ---------------------------------------------------------------------

    def add_child(self, child: "SwmObject") -> None:
        child.parent = self
        self.children.append(child)

    def iter_tree(self):
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def find(self, name: str) -> Optional["SwmObject"]:
        for obj in self.iter_tree():
            if obj.name == name:
                return obj
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} window={self.window}>"
