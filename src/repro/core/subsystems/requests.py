"""Redirect-protocol controller.

Owns the SubstructureRedirect side of the window manager: MapRequest /
ConfigureRequest / CirculateRequest interception, client lifecycle
notifications (DestroyNotify, UnmapNotify with ICCCM withdrawal
semantics), and PropertyNotify — including the swmcmd root-property
command channel (§4.3).
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

from ... import icccm
from ...icccm.hints import ICONIC_STATE
from ...xserver import events as ev
from ...xserver.geometry import Point
from ...xserver.xid import NONE
from ..functions import FunctionError, function_names
from ..swmcmd import (
    COMMAND_PROPERTY,
    CommandRejection,
    validate_command_stream,
)
from . import PRI_SUBSYSTEM, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from ..wm import ScreenContext

logger = logging.getLogger("repro.swm")


class RedirectController(Subsystem):
    """Client requests redirected to the WM, and client lifecycle."""

    name = "requests"

    def __init__(self, wm):
        super().__init__(wm)
        #: Structured rejections of malformed SWM_COMMAND payloads —
        #: the audit trail behind the beeps.
        self.swmcmd_rejections: list[CommandRejection] = []

    def event_handlers(self):
        return (
            (ev.MapRequest, PRI_SUBSYSTEM, self._on_map_request),
            (ev.ConfigureRequest, PRI_SUBSYSTEM, self._on_configure_request),
            (ev.CirculateRequest, PRI_SUBSYSTEM, self._on_circulate_request),
            (ev.DestroyNotify, PRI_SUBSYSTEM, self._on_destroy_notify),
            (ev.UnmapNotify, PRI_SUBSYSTEM, self._on_unmap_notify),
            (ev.PropertyNotify, PRI_SUBSYSTEM, self._on_property_notify),
        )

    def _on_map_request(self, event: ev.MapRequest) -> bool:
        wm = self.wm
        client = event.requestor
        managed = wm.managed.get(client)
        if managed is None:
            wm.manage(client)
        elif managed.state == ICONIC_STATE:
            wm.deiconify(managed)
        else:
            self.guarded(self.conn.map_window, client)
            self.guarded(self.conn.map_window, managed.frame)
        return True

    def _on_configure_request(self, event: ev.ConfigureRequest) -> bool:
        wm = self.wm
        client = event.window
        managed = wm.managed.get(client)
        if managed is None:
            if client in wm.frames:
                # Another client asked to configure a frame: the WM
                # alone places its frames (its window model says where
                # they are), as twm ignores requests on its own windows.
                return True
            # Unmanaged window: pass the request through.  The window
            # may be gone by now (its client died after asking).
            self.guarded(
                self.conn.configure_window,
                client,
                **self._configure_kwargs(event),
            )
            return True
        mask = event.value_mask
        resize = mask & (ev.CWWidth | ev.CWHeight)
        move = mask & (ev.CWX | ev.CWY)
        # The client lands where asked on each axis the request gives,
        # and stays where it is on the other.
        current = wm.client_desktop_position(managed)
        target = Point(
            event.x if mask & ev.CWX else current.x,
            event.y if mask & ev.CWY else current.y,
        )
        # Size and position land in one flush, a move+resize as one
        # configure of the frame; the client then hears once where it
        # ended up.
        with wm.configuring(managed):
            if resize:
                size = managed.client_size
                wm.resize_client(
                    managed,
                    event.width if mask & ev.CWWidth else size.width,
                    event.height if mask & ev.CWHeight else size.height,
                    target if move else None,
                    of_client=True,
                )
            elif move:
                offset = managed.client_offset
                wm.move_frame(managed, target.x - offset.x, target.y - offset.y)
        if mask & ev.CWStackMode and event.sibling == NONE:
            if event.stack_mode == ev.ABOVE:
                wm.raise_managed(managed)
            elif event.stack_mode == ev.BELOW:
                wm.lower_managed(managed)
        if resize or move:
            wm.note_configured(managed)
        else:
            wm._send_synthetic_configure(managed)
        return True

    @staticmethod
    def _configure_kwargs(event: ev.ConfigureRequest) -> dict:
        kwargs = {}
        if event.value_mask & ev.CWX:
            kwargs["x"] = event.x
        if event.value_mask & ev.CWY:
            kwargs["y"] = event.y
        if event.value_mask & ev.CWWidth:
            kwargs["width"] = event.width
        if event.value_mask & ev.CWHeight:
            kwargs["height"] = event.height
        if event.value_mask & ev.CWBorderWidth:
            kwargs["border_width"] = event.border_width
        if event.value_mask & ev.CWStackMode:
            kwargs["stack_mode"] = event.stack_mode
            if event.value_mask & ev.CWSibling:
                kwargs["sibling"] = event.sibling
        return kwargs

    def _on_circulate_request(self, event: ev.CirculateRequest) -> bool:
        wm = self.wm
        managed = wm.managed.get(event.window)
        if managed is not None:
            if event.place == ev.PLACE_ON_TOP:
                wm.raise_managed(managed)
            else:
                wm.lower_managed(managed)
            return True
        window = event.window
        if self.conn.window_exists(window):
            if event.place == ev.PLACE_ON_TOP:
                self.conn.raise_window(window)
            else:
                self.conn.lower_window(window)
        return True

    def _on_destroy_notify(self, event: ev.DestroyNotify) -> bool:
        managed = self.wm.managed.get(event.destroyed_window)
        if managed is not None:
            self.wm.unmanage(managed, destroyed=True)
        return True

    def _on_unmap_notify(self, event: ev.UnmapNotify) -> bool:
        wm = self.wm
        client = event.unmapped_window
        managed = wm.managed.get(client)
        if managed is None:
            return True
        pending = wm._ignore_unmaps.get(client, 0)
        if pending > 0:
            wm._ignore_unmaps[client] = pending - 1
            return True
        # ICCCM withdrawal: the client unmapped itself.
        wm.unmanage(managed)
        return True

    def _on_property_notify(self, event: ev.PropertyNotify) -> bool:
        wm = self.wm
        atom_name = self.server.atoms.name(event.atom)
        # swmcmd commands arrive as a root property (§4.3).
        if atom_name == COMMAND_PROPERTY and event.state == ev.PROPERTY_NEW_VALUE:
            for sc in wm.screens:
                if sc.root == event.window:
                    self._handle_swmcmd(sc)
                    return True
        managed = wm.managed.get(event.window)
        if managed is None:
            return True
        if atom_name == "WM_NAME":
            self.guarded(wm.decor.update_title, managed)
        elif atom_name == "WM_ICON_NAME":
            self.guarded(wm.iconifier.update_icon_name, managed)
        elif atom_name == "WM_NORMAL_HINTS":
            managed.size_hints = (
                self.guarded(icccm.get_wm_normal_hints, self.conn, managed.client)
                or managed.size_hints
            )
        elif atom_name == "WM_HINTS":
            managed.wm_hints = (
                self.guarded(icccm.get_wm_hints, self.conn, managed.client)
                or managed.wm_hints
            )
            if not managed.is_internal:
                wm.note_session_change()  # the icon hint may have moved
        elif atom_name in ("WM_COMMAND", "WM_CLIENT_MACHINE"):
            # How the client restarts: the model and the checkpoint
            # follow.
            if atom_name == "WM_COMMAND":
                managed.command = self.guarded(
                    icccm.get_wm_command_string, self.conn, managed.client
                )
            else:
                managed.machine = self.guarded(
                    icccm.get_wm_client_machine, self.conn, managed.client
                )
            if not managed.is_internal:
                wm.note_session_change()
        return True

    def _handle_swmcmd(self, sc: "ScreenContext") -> None:
        """SWM_COMMAND is writable by any client, so treat it as wire
        input: validate every line (length, encoding, known function
        name), log a structured rejection for each violation, and run
        the survivors — malformed input must never raise into the
        event loop, and one bad line must not veto its neighbours."""
        text = self.conn.get_string_property(sc.root, COMMAND_PROPERTY)
        # Delete unconditionally: an unreadable payload (wrong type or
        # format) left in place would be re-noticed forever.
        self.guarded(self.conn.delete_property, sc.root, COMMAND_PROPERTY)
        if not text:
            return
        calls, rejections = validate_command_stream(
            text, known=function_names()
        )
        for rejection in rejections:
            self.swmcmd_rejections.append(rejection)
            logger.warning(
                "swmcmd: rejected line %d (%s): %r",
                rejection.line_no, rejection.reason, rejection.text,
            )
        if rejections:
            self.wm.beep()
        for call in calls:
            try:
                self.wm.execute(call, screen=sc.number)
            except FunctionError as exc:
                logger.warning("swmcmd: %s", exc)
                self.wm.beep()
