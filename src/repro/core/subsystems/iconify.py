"""Iconification controller.

Owns icons end to end: icon holders and root icons at startup, icon
panel construction and placement, (de)iconification state transitions
(WM_STATE per ICCCM), and icon-name propagation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ... import icccm
from ...icccm.hints import ICONIC_STATE, NORMAL_STATE, WMState
from ...xserver import events as ev
from ...xserver.errors import XError
from ...xserver.geometry import Point, Rect, Size, parse_geometry
from ..decorate import client_context, icon_panel_name
from ..icons import Icon, IconHolder, build_icon_panel
from ..objects import Button, TextObject
from . import PRI_SUBSYSTEM, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from ..managed import ManagedWindow
    from ..wm import ScreenContext

WM_CHANGE_STATE = "WM_CHANGE_STATE"


class IconifyController(Subsystem):
    """Icon construction and (de)iconification."""

    name = "iconify"

    def event_handlers(self):
        return ((ev.ClientMessage, PRI_SUBSYSTEM, self._on_client_message),)

    # ------------------------------------------------------------------
    # Per-screen setup
    # ------------------------------------------------------------------

    def setup_icon_holders(self, sc: "ScreenContext") -> None:
        names = (sc.ctx.get_string([], "iconHolders") or "").split()
        for name in names:
            sc.icon_holders.append(
                IconHolder(self.conn, sc.ctx, name, sc.root)
            )

    def setup_root_icons(self, sc: "ScreenContext") -> None:
        names = (sc.ctx.get_string([], "rootIcons") or "").split()
        for name in names:
            panel = build_icon_panel(sc.ctx, name)
            size = panel.compute_layout().size
            geometry = sc.ctx.get_string(["panel", name], "geometry", "+0+0")
            geo = parse_geometry(geometry)
            position = geo.resolve(
                Size(sc.screen.width, sc.screen.height), size
            )
            window = panel.realize_tree(
                self.conn,
                sc.desktop_parent(sticky=False),
                Rect(position.x, position.y, size.width, size.height),
            )
            icon = Icon(panel, window, managed=None)
            sc.root_icons[name] = icon
            self.wm.icon_windows[window] = icon
            for obj in panel.iter_tree():
                if obj.window is not None:
                    self.wm.object_windows[obj.window] = (obj, None, sc.number)
            self.conn.map_window(window)

    # ------------------------------------------------------------------
    # (De)iconification
    # ------------------------------------------------------------------

    def iconify(self, managed: "ManagedWindow") -> None:
        if managed.state == ICONIC_STATE:
            return
        sc = self.wm.screens[managed.screen]
        if managed.icon is None:
            try:
                managed.icon = self.build_icon(sc, managed)
            except XError as err:
                # Could not build an icon (client racing away): leave
                # the window in its normal state rather than iconic
                # with nothing to click on.
                self.wm._note_guarded(err, "build_icon")
                managed.icon = None
                return
            if self.wm.managed.get(managed.client) is not managed:
                # The build's own X traffic re-enters the event pump,
                # and the client withdrew (or died) while we were
                # decorating its icon: discard the orphan.
                self.remove_icon(managed)
                return
        self.guarded(self.conn.unmap_window, managed.frame)
        self.guarded(self.conn.map_window, managed.icon.window)
        managed.state = ICONIC_STATE
        self.guarded(
            icccm.set_wm_state,
            self.conn,
            managed.client,
            WMState(ICONIC_STATE, icon_window=managed.icon.window),
        )
        self.wm.desktop.update_panner(sc)
        if not managed.is_internal:
            self.wm.note_session_change()

    def deiconify(self, managed: "ManagedWindow") -> None:
        if managed.state != ICONIC_STATE:
            return
        sc = self.wm.screens[managed.screen]
        if managed.icon is not None:
            self.guarded(self.remove_icon, managed)
        self.guarded(self.conn.map_window, managed.frame)
        self.guarded(self.conn.raise_window, managed.frame)
        managed.state = NORMAL_STATE
        self.guarded(
            icccm.set_wm_state, self.conn, managed.client, WMState(NORMAL_STATE)
        )
        self.wm.desktop.update_panner(sc)
        if not managed.is_internal:
            self.wm.note_session_change()

    # ------------------------------------------------------------------
    # Icon construction / teardown
    # ------------------------------------------------------------------

    def build_icon(self, sc: "ScreenContext", managed: "ManagedWindow") -> Icon:
        cctx = client_context(
            sc.ctx, managed.instance, managed.class_name,
            sticky=managed.sticky, shaped=managed.shaped,
        )
        panel_name = icon_panel_name(cctx) or "Xicon"
        icon_name = (
            icccm.get_wm_icon_name(self.conn, managed.client)
            or managed.name
            or managed.instance
        )
        has_image = bool(
            managed.wm_hints.icon_pixmap or managed.wm_hints.icon_window
        )
        panel = build_icon_panel(sc.ctx, panel_name, icon_name, has_image)
        size = panel.compute_layout().size

        holder = next(
            (
                h
                for h in sc.icon_holders
                if h.accepts(managed.class_name, managed.instance)
            ),
            None,
        )
        if holder is not None:
            parent = holder.window
            position = holder.slot_position(len(holder.icons))
        else:
            parent = sc.desktop_parent(managed.sticky)
            if managed.wm_hints.has_icon_position:
                position = Point(
                    managed.wm_hints.icon_x, managed.wm_hints.icon_y
                )
            else:
                offset = (
                    sc.view_offset() if not managed.sticky else Point(0, 0)
                )
                index = sum(
                    1 for m in self.wm.managed.values() if m.icon is not None
                )
                position = Point(
                    offset.x + 8 + (index * (size.width + 8)) % max(
                        size.width + 8, sc.screen.width - size.width
                    ),
                    offset.y + sc.screen.height - size.height - 8,
                )
        window = panel.realize_tree(
            self.conn,
            parent,
            Rect(position.x, position.y, size.width, size.height),
        )
        icon = Icon(panel, window, holder=holder, managed=managed)
        self.wm.icon_windows[window] = icon
        for obj in panel.iter_tree():
            if obj.window is not None:
                self.wm.object_windows[obj.window] = (obj, managed, sc.number)
        try:
            if holder is not None:
                holder.add(icon)
            self.conn.map_window(window)
        except XError:
            self._discard(icon)  # nobody holds a half-built icon
            raise
        return icon

    def _discard(self, icon: Icon) -> None:
        """Forget *icon* first, then take it out of its holder and
        destroy its window: an X error in the holder's repack cannot
        leave the icon registered."""
        for obj in icon.panel.iter_tree():
            if obj.window is not None:
                self.wm.object_windows.pop(obj.window, None)
        self.wm.icon_windows.pop(icon.window, None)
        if icon.holder is not None:
            self.guarded(icon.holder.remove, icon)
        if self.conn.window_exists(icon.window):
            self.guarded(self.conn.destroy_window, icon.window)

    def remove_icon(self, managed: "ManagedWindow") -> None:
        icon = managed.icon
        if icon is None:
            return
        managed.icon = None
        self._discard(icon)

    def repair_icon(self, managed: "ManagedWindow") -> None:
        """The icon window vanished behind the WM's back (stale-XID
        race): drop the dead icon's bookkeeping and, when the client is
        still iconic, build a fresh icon so the window stays reachable.
        If no icon can be built, fall back to deiconifying — a visible
        frame beats an unreachable client."""
        icon = managed.icon
        if icon is None:
            return
        managed.icon = None
        self._discard(icon)
        if managed.state != ICONIC_STATE:
            return
        if not self.conn.window_exists(managed.client):
            return
        sc = self.wm.screens[managed.screen]
        try:
            managed.icon = self.build_icon(sc, managed)
        except XError as err:
            self.wm._note_guarded(err, "repair_icon")
            managed.state = NORMAL_STATE
            self.guarded(self.conn.map_window, managed.frame)
            self.guarded(
                icccm.set_wm_state,
                self.conn, managed.client, WMState(NORMAL_STATE),
            )
            return
        self.guarded(self.conn.map_window, managed.icon.window)

    # ------------------------------------------------------------------
    # Icon-name propagation (WM_ICON_NAME → icon "iconname" object)
    # ------------------------------------------------------------------

    def update_icon_name(self, managed: "ManagedWindow") -> None:
        if managed.icon is None:
            return
        icon_name = (
            self.guarded(icccm.get_wm_icon_name, self.conn, managed.client)
            or ""
        )
        obj = managed.icon.panel.find("iconname")
        if isinstance(obj, Button):
            obj.set_label(icon_name)
            obj.update_label(self.conn)
        elif isinstance(obj, TextObject):
            obj.set_text(icon_name)
            obj.update_label(self.conn)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_client_message(self, event: ev.ClientMessage) -> bool:
        atom_name = self.server.atoms.name(event.message_type)
        if atom_name != WM_CHANGE_STATE:
            return False
        managed = self.wm.managed.get(event.window)
        if managed is None:
            # The message arrives on the root per ICCCM; the window
            # is in data or the event window names the client.
            managed = self.wm.find_managed(event.window)
        if managed is not None and event.data and event.data[0] == ICONIC_STATE:
            self.iconify(managed)
        return True
