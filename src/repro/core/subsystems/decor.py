"""Decoration controller (§4).

Owns the decoration around a client once it is built: resize-corner
hot zones, re-layout after client resizes, SHAPE frame recomputation,
zoom/unzoom geometry, title propagation, and dynamic changes to
decoration objects (f.setimage / f.setlabel / f.setbindings, §4.2 and
§4.4)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ...xserver import events as ev
from ...xserver.event_mask import EventMask
from ...xserver.geometry import Point, Rect, Size
from ..decorate import DecorationPlan, frame_shape_for
from ..functions import FunctionError
from ..objects import Button, Panel, SwmObject, TextObject
from . import PRI_SUBSYSTEM, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from ...toolkit.attributes import AttributeContext
    from ..managed import ManagedWindow


class DecorController(Subsystem):
    """Decoration geometry and dynamic-object behaviour."""

    name = "decor"

    #: Edge length of the resize-corner hot zones.
    CORNER_SIZE = 10
    #: Each corner's place, as (right?, bottom?), and its cursor, in
    #: creation order.
    CORNERS = {
        (0, 0): "top_left_corner",
        (1, 0): "top_right_corner",
        (0, 1): "bottom_left_corner",
        (1, 1): "bottom_right_corner",
    }

    def event_handlers(self):
        return (
            (ev.ButtonPress, PRI_SUBSYSTEM, self._on_button_press),
            (ev.ShapeNotify, PRI_SUBSYSTEM, self._on_shape_notify),
        )

    # ------------------------------------------------------------------
    # Plans and layout
    # ------------------------------------------------------------------

    def bare_plan(
        self, ctx: "AttributeContext", client_size: Size
    ) -> DecorationPlan:
        """No decoration resource: a frame that is nothing but the
        client slot."""
        panel = Panel(ctx, "bare")
        return DecorationPlan(
            panel=panel,
            panel_name="",
            frame_size=client_size,
            client_rect=Rect(0, 0, client_size.width, client_size.height),
            resize_corners=False,
        )

    def relayout(
        self,
        managed: "ManagedWindow",
        client_size: Size,
        origin: Optional[Point] = None,
        of_client: bool = False,
    ) -> None:
        """Lay the decoration out around a client of *client_size*, with
        the frame's origin at *origin* (the client's, at its new offset
        in the frame, when *of_client*) or where it is.  The model
        changes first; then one batch sends only what moved: the
        client's resize, one configure of the frame, and the objects
        and resize corners whose rect changed."""
        panel = managed.decoration
        old_frame, old_client = managed.frame_rect, managed.client_size
        applied = panel.applied
        layout = None
        frame_size = client_size
        if panel.children:
            layout = panel.compute_layout({"client": client_size})
            frame_size = layout.size
            if "client" in layout.rects:
                slot = layout.rect("client")
                managed.client_offset = Point(slot.x, slot.y)
        if origin is None:
            origin = Point(old_frame.x, old_frame.y)
        elif of_client:
            offset = managed.client_offset
            origin = Point(origin.x - offset.x, origin.y - offset.y)
        frame = Rect(origin.x, origin.y, frame_size.width, frame_size.height)
        managed.frame_rect = frame
        managed.client_size = client_size
        panel.applied = layout
        with self.wm.configuring(managed):
            if client_size != old_client:
                self.conn.resize_window(
                    managed.client, client_size.width, client_size.height
                )
            if frame != old_frame:
                self.conn.move_resize_window(
                    managed.frame, frame.x, frame.y, frame.width, frame.height
                )
            if layout is None:
                return
            for child in panel.children:
                rect = layout.rect(child.name)
                if child.window is not None and (
                    applied is None or applied.rects.get(child.name) != rect
                ):
                    self.conn.move_resize_window(
                        child.window, rect.x, rect.y, rect.width, rect.height
                    )
            if managed.resize_corners:
                self.reposition_corners(
                    managed,
                    None if applied is None else old_frame.size,
                    frame.size,
                )

    # ------------------------------------------------------------------
    # Resize corners
    # ------------------------------------------------------------------

    def add_resize_corners(self, managed: "ManagedWindow") -> None:
        """resizeCorners: True (§4.1.1 / Figure 1): four corner hot
        zones on the frame that start an interactive resize."""
        rect = managed.frame_rect
        for (cx, cy), cursor in self.CORNERS.items():
            x, y = self._corner_position(cx, cy, rect.size)
            corner = self.conn.create_window(
                managed.frame,
                x,
                y,
                self.CORNER_SIZE,
                self.CORNER_SIZE,
                event_mask=EventMask.ButtonPress,
                cursor=cursor,
            )
            self.conn.map_window(corner)
            # Below the decoration objects, once: corners only catch
            # clicks in the frame margin, never steal the titlebar
            # buttons, and nothing else restacks inside the frame.
            self.conn.lower_window(corner)
            self.wm.corner_windows[corner] = managed

    def _corner_position(
        self, cx: int, cy: int, frame_size: Size
    ) -> Tuple[int, int]:
        return (
            (frame_size.width - self.CORNER_SIZE) * cx,
            (frame_size.height - self.CORNER_SIZE) * cy,
        )

    def reposition_corners(
        self,
        managed: "ManagedWindow",
        old_size: Optional[Size],
        frame_size: Size,
    ) -> None:
        """Move each corner whose position changed from a frame of
        *old_size* (every corner, when None) to one of *frame_size*."""
        corners = [
            wid
            for wid, owner in self.wm.corner_windows.items()
            if owner is managed
        ]
        for corner, (cx, cy) in zip(corners, self.CORNERS):
            position = self._corner_position(cx, cy, frame_size)
            if old_size is None or position != self._corner_position(
                cx, cy, old_size
            ):
                self.conn.move_window(corner, *position)

    # ------------------------------------------------------------------
    # Zoom / save geometry
    # ------------------------------------------------------------------

    def save_geometry(self, managed: "ManagedWindow") -> None:
        managed.saved_rect = managed.frame_rect

    def restore_geometry(self, managed: "ManagedWindow") -> None:
        saved = managed.saved_rect
        if saved is None:
            return
        client, frame = managed.client_size, managed.frame_rect
        self.wm.resize_client(
            managed,
            client.width + saved.width - frame.width,
            client.height + saved.height - frame.height,
            Point(saved.x, saved.y),
        )
        managed.zoomed = False
        self.wm.note_configured(managed)

    def zoom_managed(self, managed: "ManagedWindow", axis: str = "both") -> None:
        """Expand to the full screen (or one axis for f.hzoom /
        f.vzoom); zooming again restores."""
        if managed.zoomed:
            self.restore_geometry(managed)
            return
        if managed.saved_rect is None:
            self.save_geometry(managed)
        sc = self.wm.screens[managed.screen]
        offset = sc.view_offset() if not managed.sticky else Point(0, 0)
        frame, client = managed.frame_rect, managed.client_size
        deco_w = frame.width - client.width
        deco_h = frame.height - client.height
        new_w = (
            sc.screen.width - deco_w - 2 if axis in ("both", "h") else client.width
        )
        new_h = (
            sc.screen.height - deco_h - 2 if axis in ("both", "v") else client.height
        )
        self.wm.resize_client(
            managed,
            new_w,
            new_h,
            Point(
                offset.x if axis in ("both", "h") else frame.x,
                offset.y if axis in ("both", "v") else frame.y,
            ),
        )
        managed.zoomed = True
        self.wm.note_configured(managed)

    # ------------------------------------------------------------------
    # Title propagation (WM_NAME → decoration "name" object)
    # ------------------------------------------------------------------

    def update_title(self, managed: "ManagedWindow") -> None:
        from ... import icccm

        managed.name = (
            icccm.get_wm_name(self.conn, managed.client) or managed.name
        )
        name_obj = managed.decoration.find("name")
        if isinstance(name_obj, Button):
            name_obj.set_label(managed.name)
            name_obj.update_label(self.conn)
        elif isinstance(name_obj, TextObject):
            name_obj.set_text(managed.name)
            name_obj.update_label(self.conn)

    # ------------------------------------------------------------------
    # Dynamic object changes (§4.2, §4.4)
    # ------------------------------------------------------------------

    def find_object(
        self, name: str, context: Optional["ManagedWindow"]
    ) -> Optional[SwmObject]:
        if context is not None:
            obj = context.decoration.find(name)
            if obj is not None:
                return obj
            if context.icon is not None:
                obj = context.icon.panel.find(name)
                if obj is not None:
                    return obj
        for obj, _, _ in self.wm.object_windows.values():
            if obj.name == name:
                return obj
        return None

    def set_button_image(
        self,
        name: str,
        bitmap_name: str,
        context: Optional["ManagedWindow"] = None,
    ) -> None:
        obj = self.find_object(name, context)
        if not isinstance(obj, Button):
            raise FunctionError(f"no button named {name!r}")
        obj.set_image(bitmap_name)
        obj.update_label(self.conn)

    def set_button_label(
        self, name: str, text: str, context: Optional["ManagedWindow"] = None
    ) -> None:
        obj = self.find_object(name, context)
        if not isinstance(obj, (Button, TextObject)):
            raise FunctionError(f"no button/text named {name!r}")
        if isinstance(obj, Button):
            obj.set_label(text)
        else:
            obj.set_text(text)
        obj.update_label(self.conn)

    def set_object_bindings(
        self, name: str, bindings: str, context: Optional["ManagedWindow"] = None
    ) -> None:
        obj = self.find_object(name, context)
        if obj is None:
            raise FunctionError(f"no object named {name!r}")
        obj.set_bindings(bindings)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_button_press(self, event: ev.ButtonPress) -> bool:
        # Resize corners start an interactive resize directly.
        corner_owner = self.wm.corner_windows.get(event.window)
        if corner_owner is not None:
            self.wm.begin_resize(corner_owner, (event.x_root, event.y_root))
            return True
        return False

    def _on_shape_notify(self, event: ev.ShapeNotify) -> bool:
        managed = self.wm.managed.get(event.window)
        if managed is None:
            return False
        managed.shaped = event.shaped
        if not managed.decoration.children:
            return True
        plan = DecorationPlan(
            panel=managed.decoration,
            panel_name=managed.decoration_name,
            frame_size=managed.frame_rect.size,
            client_rect=Rect(
                managed.client_offset.x,
                managed.client_offset.y,
                managed.client_size.width,
                managed.client_size.height,
            ),
            resize_corners=managed.resize_corners,
        )
        shape = frame_shape_for(plan, self.server.shape_query(managed.client))
        if shape is not None:
            self.conn.shape_window(
                managed.frame, shape.mask, shape.x_offset, shape.y_offset
            )
        return True
