"""swm: the window manager itself.

Ties together the object system (§4), resource-driven configuration
(§3), window manager functions (§5), the Virtual Desktop with panner
and sticky windows (§6), and session management hooks (§7).

swm is an ordinary X client: it selects SubstructureRedirect on each
root, decorates clients by reparenting them into panel hierarchies
described entirely in the resource database, and dispatches button/key
events on object windows through each object's bindings attribute.

The :class:`Swm` class is a facade: behaviour lives in subsystem
controllers (see :mod:`repro.core.subsystems`), each of which
contributes event handlers to a declarative dispatch table.  Shared
state — the managed/frames/object-window tables and the per-screen
contexts — lives here so controllers and the public API see one truth.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import icccm
from ..icccm.hints import (
    ICONIC_STATE,
    NORMAL_STATE,
    WITHDRAWN_STATE,
    SizeHints,
    WMHints,
    WMState,
)
from ..toolkit.attributes import AttributeContext
from ..xserver import events as ev
from ..xserver.client import ClientConnection
from ..xserver.errors import BadWindow, XError
from ..xserver.event_mask import EventMask
from ..xserver.geometry import Point, Rect, Size, parse_geometry
from ..xserver.server import XServer
from ..xserver.trace import monotonic_ns
from ..xserver.xid import NONE
from ..xrm.database import ResourceDatabase
from ..session.store import SessionStore  # noqa: F401  (re-exported)
from .bindings import Binding
from .decorate import (
    build_decoration,
    client_context,
    decoration_name,
    frame_shape_for,
)
from .icons import Icon, IconHolder
from .managed import ManagedWindow
from .objects import Panel, SwmObject, object_factory
from .panner import Panner
from .templates import DEFAULT_TEMPLATE
from .virtual import VirtualDesktop
from .subsystems import (
    PRI_SUBSYSTEM,
    DecorController,
    DesktopController,
    FocusController,
    IconifyController,
    InputController,
    RedirectController,
    RestartController,
)

# Re-exported: these names historically lived here and are part of the
# public surface (tests, session code, user scripts import them).
from .subsystems.desktop import SWM_ROOT_PROPERTY  # noqa: F401
from .subsystems.focus import WM_DELETE_WINDOW, WM_PROTOCOLS  # noqa: F401
from .subsystems.iconify import WM_CHANGE_STATE  # noqa: F401
from .subsystems.input import Drag, Selection  # noqa: F401
from .subsystems.restart import RESTART_PROPERTY  # noqa: F401

CASCADE_STEP = 28

logger = logging.getLogger("repro.swm")


class ScreenContext:
    """Per-screen WM state."""

    def __init__(self, wm: "Swm", number: int):
        self.wm = wm
        self.number = number
        screen = wm.server.screens[number]
        self.screen = screen
        kind = "monochrome" if screen.monochrome else "color"
        self.ctx = AttributeContext(
            wm.db,
            ["swm", kind, f"screen{number}"],
            ["Swm", kind.capitalize(), "Screen"],
            monochrome=screen.monochrome,
        )
        #: Multiple Virtual Desktops (§6.3 suggests them via the
        #: SWM_ROOT property design); one is current, the rest are
        #: unmapped.  Sticky windows live on the real root and are
        #: therefore visible on every desktop.
        self.vdesks: List[VirtualDesktop] = []
        self.current_desktop = 0
        self.panner: Optional[Panner] = None
        self.scrollbars = None  # Optional[ScrollBars]
        self.icon_holders: List[IconHolder] = []
        self.root_panels: Dict[str, ManagedWindow] = {}
        self.root_panel_objects: Dict[str, Panel] = {}
        self.root_icons: Dict[str, Icon] = {}
        self.cascade = 0
        root_panel_obj = Panel(self.ctx, "root")
        self.root_bindings: List[Binding] = root_panel_obj.bindings

    @property
    def root(self) -> int:
        return self.screen.root.id

    @property
    def vdesk(self) -> Optional[VirtualDesktop]:
        """The current Virtual Desktop (None when disabled)."""
        if not self.vdesks:
            return None
        return self.vdesks[self.current_desktop]

    def desktop_parent(self, sticky: bool) -> int:
        """Where a frame lives: the vroot, or the real root when
        sticky (or when there is no Virtual Desktop)."""
        if self.vdesk is not None and not sticky:
            return self.vdesk.window
        return self.root

    def view_offset(self) -> Point:
        if self.vdesk is None:
            return Point(0, 0)
        return Point(self.vdesk.pan_x, self.vdesk.pan_y)

    def next_cascade(self) -> Point:
        offset = self.view_offset()
        step = CASCADE_STEP * (self.cascade % 10)
        self.cascade += 1
        return Point(offset.x + 32 + step, offset.y + 32 + step)


class Swm:
    """The swm window manager client: a facade over subsystem
    controllers wired to a declarative event-handler table."""

    CORNER_SIZE = DecorController.CORNER_SIZE
    WM_TAKE_FOCUS = "WM_TAKE_FOCUS"

    def __init__(
        self,
        server: XServer,
        db: Optional[ResourceDatabase] = None,
        places_path: str = "swm.places",
        manage_existing: bool = True,
        session_store: Optional["SessionStore"] = None,
    ):
        self.server = server
        self.places_path = places_path
        #: Optional durable checkpoint store (session/store.py); when
        #: set, geometry/state changes are autosaved on a debounce and
        #: f.places writes a checkpoint generation alongside the file.
        self.session_store = session_store
        self.conn = ClientConnection(server, "swm")
        self.db = db.copy() if db is not None else ResourceDatabase()
        if db is None:
            # Like any X client, read the RESOURCE_MANAGER property
            # (what xrdb loads onto the root window).
            xrdb_text = self.conn.get_string_property(
                self.conn.root_window(0), "RESOURCE_MANAGER"
            )
            if xrdb_text:
                try:
                    self.db.load_string(xrdb_text)
                except Exception:
                    pass  # a broken user database must not kill the WM
        if not self._has_swm_resources(self.db):
            # "If no swm configuration resources have been specified, a
            # default configuration can be loaded." (§3)
            self.db.load_string(DEFAULT_TEMPLATE)
        self.managed: Dict[int, ManagedWindow] = {}
        self.frames: Dict[int, ManagedWindow] = {}
        self.object_windows: Dict[
            int, Tuple[SwmObject, Optional[ManagedWindow], int]
        ] = {}
        self.icon_windows: Dict[int, Icon] = {}
        self.corner_windows: Dict[int, ManagedWindow] = {}
        self.screens: List[ScreenContext] = []
        self.beeps = 0
        self.running = True
        self.launched: List[object] = []  # apps started by f.exec
        self._ignore_unmaps: Dict[int, int] = {}
        self._processing = False
        #: Total X errors absorbed by guarded()/the event pump; the
        #: per-error-name breakdown lives in server.stats().
        self._guarded_errors = 0
        #: Managed windows the reaper left alone because their owner's
        #: connection was throttled by the server's containment layer.
        self.throttled_skips = 0

        # Subsystem controllers: each owns one slice of behaviour and
        # contributes handlers to the dispatch table below.
        self.desktop = DesktopController(self)
        self.decor = DecorController(self)
        self.iconifier = IconifyController(self)
        self.focuser = FocusController(self)
        self.session = RestartController(self)
        self.input = InputController(self)
        self.requests = RedirectController(self)

        self._handler_table: Dict[
            type, List[Tuple[int, int, Callable[[ev.Event], object], str]]
        ] = {}
        self._install_handlers()

        for number in range(len(server.screens)):
            screen_ctx = ScreenContext(self, number)
            self.screens.append(screen_ctx)
            self.conn.select_input(
                screen_ctx.root,
                EventMask.SubstructureRedirect
                | EventMask.SubstructureNotify
                | EventMask.PropertyChange
                | EventMask.ButtonPress
                | EventMask.ButtonRelease
                | EventMask.KeyPress,
            )
            self.desktop.setup_virtual_desktop(screen_ctx)
            self.iconifier.setup_icon_holders(screen_ctx)
        # Read swmhints restart records before adopting clients (§7).
        self.session.load_restart_table(self.screens[0].root)
        for screen_ctx in self.screens:
            self._setup_root_panels(screen_ctx)
            self.iconifier.setup_root_icons(screen_ctx)
            self.desktop.setup_panner(screen_ctx)
            self.desktop.setup_scrollbars(screen_ctx)
        if manage_existing:
            self._adopt_existing()
        self.conn.event_handlers.append(self._on_event)
        self.process_pending()

    # ------------------------------------------------------------------
    # Handler table
    # ------------------------------------------------------------------

    def register_handler(
        self,
        event_cls: type,
        handler: Callable[[ev.Event], object],
        priority: int = PRI_SUBSYSTEM,
        subsystem: str = "wm",
    ) -> None:
        """Install *handler* for *event_cls*.  Handlers run in priority
        order (ties break by registration order); a truthy return
        consumes the event and stops the chain.  *subsystem* tags the
        handler for the structured tracer's per-subsystem latency
        histograms (see :mod:`repro.xserver.trace`)."""
        entries = self._handler_table.setdefault(event_cls, [])
        entries.append((priority, len(entries), handler, subsystem))
        entries.sort(key=lambda entry: (entry[0], entry[1]))

    def _install_handlers(self) -> None:
        for controller in (
            self.input,
            self.desktop,
            self.decor,
            self.iconifier,
            self.focuser,
            self.session,
            self.requests,
        ):
            for event_cls, priority, handler in controller.event_handlers():
                self.register_handler(
                    event_cls, handler, priority, controller.name
                )

    def _dispatch(self, event: ev.Event) -> None:
        entries = self._handler_table.get(type(event), ())
        tracer = self.server.tracer
        if not tracer.enabled:
            for _, _, handler, _ in entries:
                if handler(event):
                    return
            return
        # Traced dispatch: every handler invocation feeds its
        # subsystem's latency histogram; the consuming one also earns
        # a flight-recorder span.
        type_name = type(event).__name__
        tick = getattr(event, "time", 0) or 0
        client = self.conn.client_id
        for _, _, handler, subsystem in entries:
            started = monotonic_ns()
            consumed = bool(handler(event))
            tracer.record_dispatch(
                subsystem, type_name, tick, client,
                monotonic_ns() - started, consumed,
            )
            if consumed:
                return

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    @staticmethod
    def _has_swm_resources(db: ResourceDatabase) -> bool:
        return any(
            pairs and pairs[0][1] in ("swm", "Swm")
            for pairs, _ in ((spec, val) for spec, val in db._entries.items())
        )

    def _setup_root_panels(self, sc: ScreenContext) -> None:
        names = (sc.ctx.get_string([], "rootPanels") or "").split()
        for name in names:
            panel = Panel(sc.ctx, name)
            panel.build(object_factory(sc.ctx))
            size = panel.compute_layout().size
            geometry = sc.ctx.get_string(["panel", name], "geometry", "+0+0")
            geo = parse_geometry(geometry)
            position = geo.resolve(Size(sc.screen.width, sc.screen.height), size)
            window = panel.realize_tree(
                self.conn, sc.root,
                Rect(position.x, position.y, size.width, size.height),
            )
            icccm.set_wm_class(self.conn, window, name, "SwmPanel")
            icccm.set_wm_name(self.conn, window, name)
            # Still unmapped: manage maps it inside its frame.
            managed = self.manage(window, internal=True)
            if managed is not None:
                sc.root_panels[name] = managed
                sc.root_panel_objects[name] = panel
                for obj in panel.iter_tree():
                    if obj.window is not None:
                        self.object_windows[obj.window] = (obj, managed, sc.number)

    def _adopt_existing(self) -> None:
        """Adopt pre-existing windows — including a dead predecessor's
        leftovers (see RestartController.adopt_existing)."""
        self.session.adopt_existing()

    # ------------------------------------------------------------------
    # Event pump
    # ------------------------------------------------------------------

    def _on_event(self, event: ev.Event) -> None:
        if self._processing:
            return  # the pump below will drain it in order
        self.process_pending()

    def process_pending(self) -> int:
        """Handle all queued events; returns how many were handled.

        The pump must keep running through anything a dying client can
        throw at it: an X error escaping a handler is counted
        (``guarded_errors`` in ``server.stats()``) and that event is
        abandoned, after which the WM repairs itself — WM_DELETE_WINDOW
        deadlines are enforced and, whenever an error was absorbed,
        zombie state is reaped (see :meth:`reap_zombies`)."""
        if self._processing:
            return 0
        self._processing = True
        handled = 0
        errors_before = self._guarded_errors
        try:
            while True:
                progressed = False
                while self.conn.pending():
                    event = self.conn.next_event()
                    try:
                        self._dispatch(event)
                    except XError as err:
                        # Windows race away (clients exiting
                        # mid-request); a WM must survive stale-window
                        # errors.
                        self._note_guarded(err, type(event).__name__)
                    handled += 1
                    progressed = True
                # Housekeeping can queue more events; loop until the
                # connection is quiet and nothing needed repair.
                if self.focuser.enforce_delete_timeouts():
                    progressed = True
                if self._guarded_errors > errors_before:
                    errors_before = self._guarded_errors
                    if self.reap_zombies():
                        progressed = True
                if not progressed and not self.conn.pending():
                    break
            # One housekeeping tick per pump drives the debounced
            # checkpoint autosave (restart controller) and the server's
            # containment clock (request-rate windows, grab watchdog).
            self.session.housekeeping_tick()
            self.server.housekeeping_tick()
        finally:
            self._processing = False
        return handled

    # ------------------------------------------------------------------
    # Degradation: guarded X calls and zombie reaping
    # ------------------------------------------------------------------

    def guarded(self, fn, *args, default=None, what="", **kwargs):
        """Run an X call that may race a dying client.  An X error is
        counted in ``server.stats()`` and swallowed, returning
        *default* — for calls whose failure the WM survives by simply
        skipping the work (the window they concern is gone anyway)."""
        try:
            return fn(*args, **kwargs)
        except XError as err:
            self._note_guarded(err, what or getattr(fn, "__name__", repr(fn)))
            return default

    def _note_guarded(self, err: XError, where: str) -> None:
        self._guarded_errors += 1
        self.server.stats().inc("guarded", err.name)
        logger.debug("guarded %s in %s: %s", err.name, where, err)

    def note_session_change(self) -> None:
        """A change worth checkpointing happened: the restart controller
        schedules a debounced autosave."""
        self.session.mark_dirty()

    def reap_zombies(self) -> int:
        """Repair bookkeeping that points at windows which vanished
        behind the WM's back (abrupt client death racing the normal
        DestroyNotify path): unmanage entries whose client or frame is
        gone, rebuild icons whose window died, and prune dead object /
        corner / icon window records.  Returns the number of repairs;
        safe to call at any time (idempotent when there is nothing to
        do)."""
        reaped = 0
        throttled = self.server.quotas.throttled_clients()
        for managed in list(self.managed.values()):
            client_alive = self.conn.window_exists(managed.client)
            frame_alive = self.conn.window_exists(managed.frame)
            if client_alive and frame_alive:
                client_win = self.server.windows.get(managed.client)
                owner = client_win.owner if client_win is not None else None
                if owner is not None and owner in throttled:
                    # The owner is jammed, not dead: repairs now would
                    # only feed a queue the server is shedding.  Leave
                    # its windows alone until it drains.
                    self.throttled_skips += 1
                    continue
                if managed.icon is not None and not self.conn.window_exists(
                    managed.icon.window
                ):
                    self.iconifier.repair_icon(managed)
                    reaped += 1
                reaped += self._reconcile_state(managed)
                continue
            self.guarded(
                self.unmanage, managed,
                destroyed=not client_alive, what="reap_zombies",
            )
            reaped += 1
        for wid in [
            w for w in self.object_windows if not self.conn.window_exists(w)
        ]:
            self.object_windows.pop(wid, None)
            reaped += 1
        for wid in [
            w for w in self.corner_windows if not self.conn.window_exists(w)
        ]:
            self.corner_windows.pop(wid, None)
            reaped += 1
        for wid in [
            w for w in self.icon_windows if not self.conn.window_exists(w)
        ]:
            self.icon_windows.pop(wid, None)
            reaped += 1
        if reaped:
            self.focuser.prune_pending_deletes()
        return reaped

    def _reconcile_state(self, managed: ManagedWindow) -> int:
        """Re-align WM_STATE bookkeeping with the frame's actual map
        state after a fault interrupted a transition half-way.  Only
        counts repairs that actually took effect, so a persistently
        failing X call cannot spin the housekeeping loop."""
        frame_win = self.server.windows.get(managed.frame)
        if frame_win is None or frame_win.destroyed:
            return 0
        if managed.state == ICONIC_STATE:
            if managed.icon is None:
                # Iconic with nothing to click on: surface the frame.
                managed.state = NORMAL_STATE
                self.guarded(
                    self.conn.map_window, managed.frame, what="reconcile"
                )
                return 1
            if frame_win.mapped:
                self.guarded(
                    self.conn.unmap_window, managed.frame, what="reconcile"
                )
                return 0 if frame_win.mapped else 1
        elif managed.state == NORMAL_STATE and not frame_win.mapped:
            self.guarded(
                self.conn.map_window, managed.frame, what="reconcile"
            )
            return 1 if frame_win.mapped else 0
        return 0

    # ------------------------------------------------------------------
    # Overlay state (owned by the input controller)
    # ------------------------------------------------------------------

    @property
    def drag(self) -> Optional[Drag]:
        return self.input.drag

    @drag.setter
    def drag(self, value: Optional[Drag]) -> None:
        self.input.drag = value

    @property
    def selection(self) -> Optional[Selection]:
        return self.input.selection

    @selection.setter
    def selection(self, value: Optional[Selection]) -> None:
        self.input.selection = value

    @property
    def active_menu(self):
        return self.input.active_menu

    @active_menu.setter
    def active_menu(self, value) -> None:
        self.input.active_menu = value

    @property
    def restart_table(self) -> List[dict]:
        return self.session.restart_table

    @restart_table.setter
    def restart_table(self, value: List[dict]) -> None:
        self.session.restart_table = value

    # ------------------------------------------------------------------
    # Managing windows
    # ------------------------------------------------------------------

    def manage(
        self,
        client: int,
        internal: bool = False,
        sticky: Optional[bool] = None,
    ) -> Optional[ManagedWindow]:
        """Bring *client* under management: decorate, reparent, map.

        Idempotent (managing a managed client returns its record) and
        crash-safe: when the client dies — or any X call fails — part
        way through, the half-built decoration is torn down and None is
        returned, so no zombie frame survives an aborted manage."""
        if client in self.managed:
            return self.managed[client]
        try:
            window = self.server.window(client)
        except BadWindow:
            return None
        if window.override_redirect:
            return None
        sc = self._screen_of_window(window)
        if sc is None:
            return None
        partial: List[int] = []  # the frame id, once realized
        try:
            return self._manage(sc, client, internal, sticky, partial)
        except XError as err:
            self._note_guarded(err, "manage")
            self._reap_partial_manage(
                client, partial[0] if partial else None
            )
            return None

    def _manage(
        self,
        sc: ScreenContext,
        client: int,
        internal: bool,
        sticky: Optional[bool],
        partial: List[int],
    ) -> ManagedWindow:
        wm_class = icccm.get_wm_class(self.conn, client) or ("", "")
        instance, class_name = wm_class
        title = icccm.get_wm_name(self.conn, client) or instance or "untitled"
        size_hints = icccm.get_wm_normal_hints(self.conn, client) or SizeHints()
        wm_hints = icccm.get_wm_hints(self.conn, client) or WMHints()
        shaped = self.server.window_is_shaped(client)
        transient = icccm.get_wm_transient_for(self.conn, client) is not None
        # How the session restarts it (§7).
        command = icccm.get_wm_command_string(self.conn, client)
        machine = icccm.get_wm_client_machine(self.conn, client)

        restart_entry = self.session.match_restart_entry(command, machine)

        if sticky is None:
            probe_ctx = client_context(sc.ctx, instance, class_name)
            sticky = probe_ctx.get_bool([], "sticky", False)
            if restart_entry is not None and restart_entry.get("sticky") is not None:
                sticky = bool(restart_entry["sticky"])

        cctx = client_context(sc.ctx, instance, class_name,
                              sticky=sticky, shaped=shaped,
                              transient=transient)
        panel_name = decoration_name(cctx)

        x, y, width, height, border = self.conn.get_geometry(client)
        if restart_entry is not None and restart_entry.get("geometry"):
            geo = restart_entry["geometry"]
            if geo.width is not None:
                width, height = geo.width, geo.height
                self.conn.resize_window(client, width, height)

        client_size = Size(width, height)
        if panel_name:
            plan = build_decoration(sc.ctx, panel_name, client_size, title)
        else:
            plan = self.decor.bare_plan(sc.ctx, client_size)

        desired = self._initial_client_position(
            sc, size_hints, restart_entry, Point(x, y)
        )
        frame_origin = Point(
            desired.x - plan.client_rect.x, desired.y - plan.client_rect.y
        )

        parent = sc.desktop_parent(sticky)
        frame_rect = Rect(frame_origin.x, frame_origin.y,
                          plan.frame_size.width, plan.frame_size.height)
        frame = plan.panel.realize_tree(self.conn, parent, frame_rect)
        partial.append(frame)

        # Reparent the client into the interior client slot.  The
        # reparent of a *mapped* window generates an UnmapNotify we must
        # not mistake for an ICCCM withdrawal.
        slot = plan.panel.find("client")
        slot_window = slot.window if slot is not None else frame
        if self.server.window(client).mapped:
            self._ignore_unmaps[client] = self._ignore_unmaps.get(client, 0) + 1
        if border:
            self.conn.configure_window(client, border_width=0)
        # Reparenting moves the client out from under the root's
        # SubstructureRedirect; select redirect on the slot so client
        # configure/map requests are still intercepted (as any
        # reparenting WM must).
        from .objects.base import OBJECT_EVENT_MASK

        self.conn.select_input(
            slot_window,
            OBJECT_EVENT_MASK
            | EventMask.SubstructureRedirect
            | EventMask.SubstructureNotify,
        )
        self.conn.reparent_window(client, slot_window, 0, 0)
        if not internal:
            self.conn.add_to_save_set(client)
        # Preserve any selection we already hold on our own windows
        # (the panner selects button events on its client window).
        existing = self.server.window(client).mask_for(self.conn.client_id)
        self.conn.select_input(
            client,
            existing | EventMask.PropertyChange | EventMask.StructureNotify,
        )

        managed = ManagedWindow(
            client=client,
            frame=frame,
            screen=sc.number,
            decoration=plan.panel,
            client_offset=Point(plan.client_rect.x, plan.client_rect.y),
            frame_rect=frame_rect,
            client_size=client_size,
            command=command,
            machine=machine,
            instance=instance,
            class_name=class_name,
            name=title,
            sticky=sticky,
            shaped=shaped,
            is_internal=internal,
            desktop=sc.current_desktop,
            decoration_name=plan.panel_name,
            resize_corners=plan.resize_corners,
            original_border_width=border,
            size_hints=size_hints,
            wm_hints=wm_hints,
        )
        logger.debug(
            "manage client=%#x frame=%#x %s.%s decoration=%r sticky=%s",
            client, frame, class_name, instance, plan.panel_name, sticky,
        )
        self.managed[client] = managed
        self.frames[frame] = managed
        for obj in plan.panel.iter_tree():
            if obj.window is not None:
                self.object_windows[obj.window] = (obj, managed, sc.number)

        shape = frame_shape_for(plan, self.server.shape_query(client))
        if shape is not None:
            self.conn.shape_window(frame, shape.mask, shape.x_offset, shape.y_offset)

        if plan.resize_corners:
            self.decor.add_resize_corners(managed)

        icccm.set_wm_state(self.conn, client, WMState(NORMAL_STATE))
        self.desktop.set_swm_root(managed)
        self.conn.map_window(client)
        # The frame was built unmapped: this one MapWindow shows the
        # finished tree, exposed in a single pass.
        self.conn.map_window(frame)
        self.conn.raise_window(frame)
        self._send_synthetic_configure(managed)

        start_iconic = wm_hints.start_iconic
        if restart_entry is not None and restart_entry.get("state") is not None:
            start_iconic = restart_entry["state"] == ICONIC_STATE
            if restart_entry.get("icon_position") is not None:
                managed.wm_hints.flags |= icccm.ICON_POSITION_HINT
                managed.wm_hints.icon_x, managed.wm_hints.icon_y = restart_entry[
                    "icon_position"
                ]
        if start_iconic:
            self.iconify(managed)
        if (
            restart_entry is not None
            and restart_entry.get("desktop") is not None
            and sc.vdesks
        ):
            self.send_to_desktop(managed, restart_entry["desktop"])
        self.desktop.update_panner(sc)
        if not internal:
            self.note_session_change()
        return managed

    def unmanage(self, managed: ManagedWindow, destroyed: bool = False) -> None:
        """Release a client: reparent it back to the root, destroy the
        decoration, drop all bookkeeping.

        Every X call is guarded — the client may die at any point in
        this sequence, and a failed step must not leave the tables
        half-cleared (that is how zombie frames are born)."""
        logger.debug(
            "unmanage client=%#x %r destroyed=%s",
            managed.client, managed.instance, destroyed,
        )
        sc = self.screens[managed.screen]
        if managed.icon is not None:
            self.guarded(self.iconifier.remove_icon, managed, what="unmanage")
        if not destroyed and self.conn.window_exists(managed.client):
            window = self.server.window(managed.client)
            origin = window.position_in_root()
            if window.mapped:
                self._ignore_unmaps[managed.client] = (
                    self._ignore_unmaps.get(managed.client, 0) + 1
                )
            self.guarded(
                self.conn.reparent_window,
                managed.client, sc.root, origin.x, origin.y,
                what="unmanage",
            )
            if managed.original_border_width:
                self.guarded(
                    self.conn.configure_window, managed.client,
                    border_width=managed.original_border_width,
                    what="unmanage",
                )
            self.guarded(
                icccm.set_wm_state,
                self.conn, managed.client, WMState(WITHDRAWN_STATE),
                what="unmanage",
            )
            if not managed.is_internal:
                self.guarded(
                    self.conn.remove_from_save_set, managed.client,
                    what="unmanage",
                )
        for obj in managed.decoration.iter_tree():
            if obj.window is not None:
                self.object_windows.pop(obj.window, None)
        for corner in [wid for wid, owner in self.corner_windows.items()
                       if owner is managed]:
            self.corner_windows.pop(corner, None)
        if self.conn.window_exists(managed.frame):
            self.guarded(self.conn.destroy_window, managed.frame, what="unmanage")
        self.managed.pop(managed.client, None)
        self.frames.pop(managed.frame, None)
        self._ignore_unmaps.pop(managed.client, None)
        self.focuser.pending_deletes.pop(managed.client, None)
        self.desktop.update_panner(sc)
        if not managed.is_internal:
            self.note_session_change()

    def _reap_partial_manage(self, client: int, frame: Optional[int]) -> None:
        """A manage() aborted part-way (injected error, client died
        mid-reparent): tear down whatever was built so no zombie frame
        survives.  The client window, if it still exists and was
        already pulled inside the frame, is pushed back to its root
        first so destroying the frame does not take it along."""
        managed = self.managed.pop(client, None)
        if managed is not None:
            if frame is None:
                frame = managed.frame
            self.frames.pop(managed.frame, None)
            for wid in [
                w for w, entry in self.object_windows.items()
                if entry[1] is managed
            ]:
                self.object_windows.pop(wid, None)
            for wid in [
                w for w, owner in self.corner_windows.items()
                if owner is managed
            ]:
                self.corner_windows.pop(wid, None)
        self._ignore_unmaps.pop(client, None)
        if frame is None or not self.conn.window_exists(frame):
            return
        client_win = self.server.windows.get(client)
        frame_win = self.server.windows.get(frame)
        if (
            client_win is not None
            and not client_win.destroyed
            and frame_win is not None
            and frame_win.is_ancestor_of(client_win)
        ):
            origin = client_win.position_in_root()
            self.guarded(
                self.conn.reparent_window,
                client, client_win.root().id, origin.x, origin.y,
                what="abort-manage",
            )
        self.guarded(self.conn.destroy_window, frame, what="abort-manage")

    def _initial_client_position(
        self,
        sc: ScreenContext,
        hints: SizeHints,
        restart_entry: Optional[dict],
        current: Point,
    ) -> Point:
        """Where the client window lands on the desktop (§6.3):
        USPosition is absolute, PPosition is viewport-relative,
        otherwise cascade within the current view."""
        if restart_entry is not None and restart_entry.get("geometry"):
            geo = restart_entry["geometry"]
            if geo.x is not None:
                return Point(geo.x, geo.y)
        if hints.user_position:
            x = hints.x or current.x
            y = hints.y or current.y
            return Point(x, y)
        if hints.program_position:
            offset = sc.view_offset()
            x = hints.x or current.x
            y = hints.y or current.y
            return Point(offset.x + x, offset.y + y)
        if current.x or current.y:
            # A pre-positioned window without hints: treat like PPosition.
            offset = sc.view_offset()
            return Point(offset.x + current.x, offset.y + current.y)
        return sc.next_cascade()

    def _screen_of_window(self, window) -> Optional[ScreenContext]:
        root = window.root()
        for sc in self.screens:
            if sc.root == root.id:
                return sc
        return None

    def find_managed(self, wid: int) -> Optional[ManagedWindow]:
        """Resolve any window id (client, frame, or decoration object)
        to its managed window."""
        if wid in self.managed:
            return self.managed[wid]
        if wid in self.frames:
            return self.frames[wid]
        entry = self.object_windows.get(wid)
        if entry is not None:
            return entry[1]
        # Walk up the tree: maybe a descendant of a frame.
        try:
            window = self.server.window(wid)
        except BadWindow:
            return None
        for ancestor in window.ancestors():
            if ancestor.id in self.frames:
                return self.frames[ancestor.id]
            if ancestor.id in self.managed:
                return self.managed[ancestor.id]
        return None

    # ------------------------------------------------------------------
    # Geometry operations
    # ------------------------------------------------------------------

    def frame_rect(self, managed: ManagedWindow) -> Rect:
        """The frame's rect in its parent's coordinates, as the server
        holds it.  The WM itself reads its model, ``managed.frame_rect``;
        this read lets a caller check the model against the server."""
        x, y, width, height, _ = self.conn.get_geometry(managed.frame)
        return Rect(x, y, width, height)

    def client_desktop_position(self, managed: ManagedWindow) -> Point:
        """The client window's position in desktop coordinates (or
        screen coordinates for sticky windows)."""
        rect = managed.frame_rect
        return Point(
            rect.x + managed.client_offset.x, rect.y + managed.client_offset.y
        )

    @contextmanager
    def configuring(
        self, managed: ManagedWindow, batch: bool = True
    ) -> Iterator[None]:
        """Send the requests that carry a change already made to
        *managed*'s window model: in one batch, or one by one when
        *batch* is False, so an X error reaches the caller.  If one
        fails (it raises, or its batch result says so), the server
        holds something else: the model is read back from it."""
        results: List[dict] = []
        try:
            if batch:
                with self.conn.batch() as results:
                    yield
            else:
                yield
        except XError:
            self._resync(managed)
            raise
        if not all(result["ok"] for result in results):
            self._resync(managed)

    def _resync(self, managed: ManagedWindow) -> None:
        """Take *managed*'s model from the server again, and have the
        next relayout send every decoration object."""
        try:
            x, y, width, height, _ = self.conn.get_geometry(managed.frame)
            _, _, client_w, client_h, _ = self.conn.get_geometry(managed.client)
        except XError:
            return  # the window is gone; the reaper unmanages it
        managed.frame_rect = Rect(x, y, width, height)
        managed.client_size = Size(client_w, client_h)
        managed.decoration.applied = None

    def move_frame(self, managed: ManagedWindow, x: int, y: int) -> None:
        """Move the frame's origin to (x, y), telling nobody."""
        managed.frame_rect = managed.frame_rect.moved_to(x, y)
        with self.configuring(managed, batch=False):
            self.conn.move_window(managed.frame, x, y)

    def move_managed_to(self, managed: ManagedWindow, x: int, y: int) -> None:
        """Move the frame so its origin is at desktop (x, y), then tell
        the client where it now lives (synthetic ConfigureNotify)."""
        self.move_frame(managed, x, y)
        self.note_configured(managed)

    def move_client_to(self, managed: ManagedWindow, x: int, y: int) -> None:
        """Move so the *client* origin lands at desktop (x, y)."""
        self.move_managed_to(
            managed, x - managed.client_offset.x, y - managed.client_offset.y
        )

    def resize_managed(
        self, managed: ManagedWindow, width: int, height: int
    ) -> None:
        """Resize the client (honouring its size hints) and rebuild the
        decoration layout around the new size."""
        self.resize_client(managed, width, height)
        self.note_configured(managed)

    def resize_client(
        self,
        managed: ManagedWindow,
        width: int,
        height: int,
        origin: Optional[Point] = None,
        of_client: bool = False,
    ) -> None:
        """The resize half of :meth:`resize_managed`, telling nobody:
        the client gets the size its hints allow and the decoration is
        laid out around it, with the frame's origin at *origin* (the
        client's, when *of_client*), or where it is.  A caller then
        calls :meth:`note_configured` once."""
        width, height = managed.size_hints.constrain_size(width, height)
        self.decor.relayout(managed, Size(width, height), origin, of_client)
        sc = self.screens[managed.screen]
        if sc.panner is not None and managed.client == sc.panner.window:
            sc.panner.resized(width, height)

    def note_configured(self, managed: ManagedWindow) -> None:
        """The WM moved or resized *managed*: tell the client where it
        ended up (one synthetic ConfigureNotify), redraw the panner and
        schedule a checkpoint."""
        self._send_synthetic_configure(managed)
        self.desktop.update_panner(self.screens[managed.screen])
        if not managed.is_internal:
            self.note_session_change()

    def _send_synthetic_configure(self, managed: ManagedWindow) -> None:
        """ICCCM: after the WM moves a client, send it a synthetic
        ConfigureNotify with its position relative to its root — on the
        Virtual Desktop, desktop coordinates (§6.3)."""
        position = self.client_desktop_position(managed)
        event = ev.ConfigureNotify(
            window=managed.client,
            configured_window=managed.client,
            x=position.x,
            y=position.y,
            width=managed.client_size.width,
            height=managed.client_size.height,
            border_width=0,
            override_redirect=False,
        )
        self.conn.send_event(managed.client, event, EventMask.StructureNotify)

    # -- stacking -------------------------------------------------------

    def raise_managed(self, managed: ManagedWindow) -> None:
        self.conn.raise_window(managed.frame)

    def lower_managed(self, managed: ManagedWindow) -> None:
        self.conn.lower_window(managed.frame)

    def raise_lower_managed(self, managed: ManagedWindow) -> None:
        frame = self.server.window(managed.frame)
        siblings = frame.parent.children
        index = siblings.index(frame)
        obscured = any(
            other.mapped
            and other.outer_rect().intersects(frame.outer_rect())
            for other in siblings[index + 1:]
        )
        if obscured:
            self.raise_managed(managed)
        else:
            self.lower_managed(managed)

    def circulate(self, screen: int, up: bool) -> None:
        sc = self.screens[screen]
        parent = sc.desktop_parent(sticky=False)
        self.conn.circulate_window(
            parent, ev.RAISE_LOWEST if up else ev.LOWER_HIGHEST
        )

    # ------------------------------------------------------------------
    # Facade: decoration geometry (decor controller)
    # ------------------------------------------------------------------

    def save_geometry(self, managed: ManagedWindow) -> None:
        self.decor.save_geometry(managed)

    def restore_geometry(self, managed: ManagedWindow) -> None:
        self.decor.restore_geometry(managed)

    def zoom_managed(self, managed: ManagedWindow, axis: str = "both") -> None:
        self.decor.zoom_managed(managed, axis)

    def set_button_image(
        self, name: str, bitmap_name: str,
        context: Optional[ManagedWindow] = None,
    ) -> None:
        self.decor.set_button_image(name, bitmap_name, context)

    def set_button_label(
        self, name: str, text: str, context: Optional[ManagedWindow] = None
    ) -> None:
        self.decor.set_button_label(name, text, context)

    def set_object_bindings(
        self, name: str, bindings: str,
        context: Optional[ManagedWindow] = None,
    ) -> None:
        self.decor.set_object_bindings(name, bindings, context)

    # ------------------------------------------------------------------
    # Facade: icons (iconify controller)
    # ------------------------------------------------------------------

    def iconify(self, managed: ManagedWindow) -> None:
        self.iconifier.iconify(managed)

    def deiconify(self, managed: ManagedWindow) -> None:
        self.iconifier.deiconify(managed)

    # ------------------------------------------------------------------
    # Facade: virtual desktop (desktop controller)
    # ------------------------------------------------------------------

    def pan_to(self, screen: int, x: int, y: int) -> None:
        self.desktop.pan_to(screen, x, y)

    def pan_by(self, screen: int, dx: int, dy: int) -> None:
        self.desktop.pan_by(screen, dx, dy)

    def switch_desktop(self, screen: int, index: int) -> None:
        self.desktop.switch_desktop(screen, index)

    def send_to_desktop(self, managed: ManagedWindow, index: int) -> None:
        self.desktop.send_to_desktop(managed, index)

    def stick(self, managed: ManagedWindow) -> None:
        self.desktop.stick(managed)

    def unstick(self, managed: ManagedWindow) -> None:
        self.desktop.unstick(managed)

    def warp_to_managed(self, managed: ManagedWindow) -> None:
        self.desktop.warp_to_managed(managed)

    def warp_pointer_by(self, dx: int, dy: int) -> None:
        self.conn.warp_pointer(NONE, dx, dy)

    # ------------------------------------------------------------------
    # Facade: focus / client lifecycle (focus controller)
    # ------------------------------------------------------------------

    def focus_managed(self, managed: ManagedWindow) -> None:
        self.focuser.focus_managed(managed)

    def delete_client(self, managed: ManagedWindow) -> None:
        self.focuser.delete_client(managed)

    def destroy_client(self, managed: ManagedWindow) -> None:
        self.focuser.destroy_client(managed)

    # ------------------------------------------------------------------
    # Facade: WM lifecycle / session (restart controller)
    # ------------------------------------------------------------------

    def quit(self) -> None:
        self.session.quit()

    def restart(self) -> None:
        self.session.restart()

    def save_places(self) -> str:
        return self.session.save_places()

    # ------------------------------------------------------------------
    # Facade: interaction (input controller)
    # ------------------------------------------------------------------

    def popup_menu(
        self,
        name: str,
        screen: int,
        pointer: Tuple[int, int],
        context: Optional[ManagedWindow],
    ) -> None:
        self.input.popup_menu(name, screen, pointer, context)

    def execute(
        self,
        call,
        screen: int = 0,
        context: Optional[ManagedWindow] = None,
        pointer: Optional[Tuple[int, int]] = None,
        event: Optional[ev.Event] = None,
    ) -> None:
        self.input.execute(call, screen, context, pointer, event)

    def execute_string(self, text: str, screen: int = 0) -> None:
        self.input.execute_string(text, screen)

    def begin_move(
        self, managed: ManagedWindow, pointer: Tuple[int, int]
    ) -> None:
        self.input.begin_move(managed, pointer)

    def begin_resize(
        self, managed: ManagedWindow, pointer: Tuple[int, int]
    ) -> None:
        self.input.begin_resize(managed, pointer)

    # ------------------------------------------------------------------
    # Misc WM services
    # ------------------------------------------------------------------

    def refresh(self, screen: int) -> None:
        """Force a repaint by briefly mapping a screen-sized window."""
        sc = self.screens[screen]
        cover = self.conn.create_window(
            sc.root, 0, 0, sc.screen.width, sc.screen.height,
            override_redirect=True,
        )
        self.conn.map_window(cover)
        self.conn.destroy_window(cover)

    def beep(self) -> None:
        self.beeps += 1

    def exec_command(self, command: str) -> None:
        """f.exec: launch a client on the local host."""
        import shlex

        from ..clients import launch_command

        app = launch_command(self.server, shlex.split(command))
        self.launched.append(app)
        self.process_pending()

