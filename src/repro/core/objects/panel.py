"""The panel object (§4.1): a container arranging objects in rows.

Panels build their subtree from their own resource definition
(``swm*panel.<name>``), so panels nest to any depth.  The special
interior panel named ``client`` is the slot where a decoration panel
places the client window; its size is imposed from outside.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from ...toolkit.layout import LayoutItem, LayoutResult, layout_panel
from ...xserver.geometry import Rect, Size
from ..panel_spec import ObjectSpec, PanelSpecError, parse_panel_spec
from .base import SwmObject

if TYPE_CHECKING:  # pragma: no cover
    from ...xserver.client import ClientConnection

#: Guard against panels that (transitively) contain themselves.
MAX_PANEL_DEPTH = 12


class Panel(SwmObject):
    type_name = "panel"

    def __init__(self, ctx, name: str):
        super().__init__(ctx, name)
        self.specs: Dict[str, ObjectSpec] = {}
        self.layout: Optional[LayoutResult] = None
        #: The layout the children's windows were last configured to;
        #: None when that is unknown (a request failed), so the next
        #: relayout sends every child.
        self.applied: Optional[LayoutResult] = None

    # -- construction --------------------------------------------------------

    def definition(self) -> Optional[str]:
        """The raw ``swm*panel.<name>`` resource value, if any."""
        class_name = self.name[:1].upper() + self.name[1:]
        return self.ctx.db.get(
            self.ctx.prefix_names + ["panel", self.name],
            self.ctx.prefix_classes + ["Panel", class_name],
        )

    def build(
        self,
        factory: Callable[[str, str], SwmObject],
        depth: int = 0,
    ) -> None:
        """Populate children from the panel definition resource."""
        if depth > MAX_PANEL_DEPTH:
            raise PanelSpecError(
                f"panel {self.name!r} nests deeper than {MAX_PANEL_DEPTH}"
            )
        raw = self.definition()
        if raw is None:
            return  # a bare container (e.g. the client slot)
        for spec in parse_panel_spec(raw):
            child = factory(spec.type, spec.name)
            self.specs[spec.name] = spec
            self.add_child(child)
            if isinstance(child, Panel) and child.name != "client":
                child.build(factory, depth + 1)

    # -- layout --------------------------------------------------------------------

    def compute_layout(
        self,
        size_overrides: Optional[Dict[str, Size]] = None,
        min_width: int = 0,
    ) -> LayoutResult:
        """Lay out the children, caching the result for realize().

        *size_overrides* imposes sizes by object name (the client slot,
        or the name button stretched to the title width).
        """
        overrides = size_overrides or {}
        items = []
        for child in self.children:
            spec = self.specs[child.name]
            if child.name in overrides:
                size = overrides[child.name]
            elif isinstance(child, Panel):
                size = child.compute_layout(overrides).size
            else:
                size = child.natural_size()
            items.append(
                LayoutItem(
                    child.name,
                    size.width,
                    size.height,
                    spec.col,
                    spec.row,
                    spec.col_from_right,
                    spec.row_from_bottom,
                )
            )
        hgap, vgap = self.resolved(
            "gaps", lambda: (self.attr_int("hgap", 2), self.attr_int("vgap", 2))
        )
        self.layout = layout_panel(
            items,
            hgap=hgap,
            vgap=vgap,
            padding=self.padding,
            min_width=min_width,
        )
        return self.layout

    def natural_size(self) -> Size:
        """Laid out afresh each time: a child's size may change."""
        if self.children:
            return self.compute_layout().size
        return Size(16, 16)

    # -- realization -------------------------------------------------------------------

    def realize_tree(
        self,
        conn: "ClientConnection",
        parent_window: int,
        rect: Rect,
        size_overrides: Optional[Dict[str, Size]] = None,
    ) -> int:
        """Create windows for this panel and its whole subtree.

        The layout must already be computed (or computable); child
        rects come from the cached layout.  Every window below the top
        one is mapped; the top window is left unmapped for the caller
        to map once the tree is complete, so the finished tree is
        exposed in one pass and nothing is mapped on screen half-built.
        """
        if self.layout is None:
            self.compute_layout(size_overrides)
        window = self.create(conn, parent_window, rect)
        for child in self.children:
            child_rect = self.layout.rect(child.name)
            if isinstance(child, Panel):
                conn.map_window(
                    child.realize_tree(conn, window, child_rect, size_overrides)
                )
            else:
                child.realize(conn, window, child_rect)
        self.applied = self.layout
        return window

    def child_rect(self, name: str) -> Rect:
        if self.layout is None:
            raise PanelSpecError(f"panel {self.name!r} not laid out")
        return self.layout.rect(name)
