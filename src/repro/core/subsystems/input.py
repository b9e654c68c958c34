"""Input controller: bindings dispatch and interactive interaction (§5).

Owns the three "overlay" interaction modes — an interactive move or
resize (:class:`Drag`), a pending window selection with the
question-mark pointer (:class:`Selection`), and a popped-up menu — plus
the generic bindings dispatch for object windows and root/desktop
backgrounds, and the window-manager function execution machinery that
resolves each function's invocation mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ...xserver import events as ev
from ...xserver.event_mask import EventMask
from ...xserver.geometry import Point, Rect
from ..bindings import (
    Binding,
    bindings_for_button,
    bindings_for_key,
    bindings_for_motion,
)
from ..functions import FunctionError, Invocation, lookup as lookup_function
from ..objects import Menu, SwmObject
from . import PRI_BINDINGS, PRI_OVERLAY, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from ..managed import ManagedWindow
    from ..wm import ScreenContext


@dataclass
class Drag:
    """An interactive move/resize in progress."""

    kind: str  # "move" or "resize"
    managed: "ManagedWindow"
    start_pointer: Tuple[int, int]
    start_rect: Rect  # frame rect in its parent's coordinates
    current: Rect = None  # type: ignore[assignment]
    in_panner: bool = False

    def __post_init__(self):
        if self.current is None:
            self.current = self.start_rect


@dataclass
class Selection:
    """A pending interactive window selection (question-mark pointer)."""

    call: object  # FunctionCall
    multiple: bool
    screen: int


class InputController(Subsystem):
    """Overlay interactions, bindings dispatch, function execution."""

    name = "input"

    def __init__(self, wm):
        super().__init__(wm)
        self.drag: Optional[Drag] = None
        self.selection: Optional[Selection] = None
        self.active_menu: Optional[
            Tuple[Menu, int, Optional["ManagedWindow"]]
        ] = None

    def event_handlers(self):
        return (
            # Overlay modes intercept everything else.
            (ev.ButtonPress, PRI_OVERLAY, self._on_overlay_button_press),
            (ev.ButtonRelease, PRI_OVERLAY, self._on_overlay_button_release),
            (ev.MotionNotify, PRI_OVERLAY, self._on_overlay_motion),
            # Generic bindings dispatch runs after subsystem handlers.
            (ev.ButtonPress, PRI_BINDINGS, self._on_bindings_button_press),
            (ev.MotionNotify, PRI_BINDINGS, self._on_bindings_motion),
            (ev.KeyPress, PRI_BINDINGS, self._on_key_press),
        )

    # ------------------------------------------------------------------
    # Menus
    # ------------------------------------------------------------------

    def popup_menu(
        self,
        name: str,
        screen: int,
        pointer: Tuple[int, int],
        context: Optional["ManagedWindow"],
    ) -> None:
        if self.active_menu is not None:
            self.close_menu()
        sc = self.wm.screens[screen]
        menu = Menu(sc.ctx, name)
        menu.popup(self.conn, sc.root, pointer[0], pointer[1])
        self.active_menu = (menu, screen, context)

    def close_menu(self) -> None:
        if self.active_menu is None:
            return
        menu, _, _ = self.active_menu
        # Clear the overlay first: even if the popdown fails (menu
        # window raced away) the WM must not stay in menu mode.
        self.active_menu = None
        self.guarded(menu.popdown, self.conn)

    # ------------------------------------------------------------------
    # Function execution
    # ------------------------------------------------------------------

    def execute(
        self,
        call,
        screen: int = 0,
        context: Optional["ManagedWindow"] = None,
        pointer: Optional[Tuple[int, int]] = None,
        event: Optional[ev.Event] = None,
    ) -> None:
        """Run one function call, resolving its invocation mode (§5)."""
        wm = self.wm
        spec = lookup_function(call.name)
        if pointer is None:
            pointer = (self.server.pointer.x, self.server.pointer.y)
        if not spec.needs_window:
            spec.handler(wm, Invocation(call, screen, context, pointer, event))
            return
        argument = call.argument if spec.window_from_arg else None
        if argument is None:
            if context is not None:
                spec.handler(
                    wm, Invocation(call, screen, context, pointer, event)
                )
            else:
                self.begin_selection(call, multiple=False, screen=screen)
            return
        if argument == "multiple":
            self.begin_selection(call, multiple=True, screen=screen)
            return
        if argument == "#$":
            managed = self.managed_under_pointer()
            if managed is None:
                wm.beep()
                return
            spec.handler(wm, Invocation(call, screen, managed, pointer, event))
            return
        if argument.startswith("#"):
            try:
                wid = int(argument[1:], 0)
            except ValueError:
                raise FunctionError(f"bad window id {argument!r}") from None
            managed = wm.find_managed(wid)
            if managed is None:
                wm.beep()
                return
            spec.handler(wm, Invocation(call, screen, managed, pointer, event))
            return
        # Class / instance match: all windows whose class matches.
        targets = [
            m
            for m in list(wm.managed.values())
            if argument in (m.class_name, m.instance)
        ]
        if not targets:
            wm.beep()
            return
        for managed in targets:
            spec.handler(wm, Invocation(call, screen, managed, pointer, event))

    def execute_string(self, text: str, screen: int = 0) -> None:
        """Run a command string ('f.raise') as swmcmd would."""
        from ..swmcmd import parse_command

        self.execute(parse_command(text), screen=screen)

    def managed_under_pointer(self) -> Optional["ManagedWindow"]:
        pointer_window = self.server.pointer.window
        if pointer_window is None:
            return None
        return self.wm.find_managed(pointer_window.id)

    # ------------------------------------------------------------------
    # Interactive window selection
    # ------------------------------------------------------------------

    def begin_selection(self, call, multiple: bool, screen: int) -> None:
        """Prompt the user to pick window(s): the question-mark pointer."""
        self.selection = Selection(call=call, multiple=multiple, screen=screen)
        sc = self.wm.screens[screen]
        self.conn.grab_pointer(
            sc.root,
            EventMask.ButtonPress | EventMask.ButtonRelease,
            owner_events=False,
            cursor="question_arrow",
        )

    def end_selection(self) -> None:
        self.selection = None
        self.conn.ungrab_pointer()

    def _selection_click(self, event: ev.ButtonPress) -> None:
        selection = self.selection
        assert selection is not None
        managed = self.managed_under_pointer()
        if managed is None:
            # Clicking the root ends the prompt (also the single-shot
            # miss case).
            self.end_selection()
            self.wm.beep()
            return
        spec = lookup_function(selection.call.name)
        from ..bindings import FunctionCall

        bare = FunctionCall(selection.call.name, None)
        spec.handler(
            self.wm,
            Invocation(
                bare,
                selection.screen,
                managed,
                (event.x_root, event.y_root),
                event,
            ),
        )
        if not selection.multiple:
            self.end_selection()

    # ------------------------------------------------------------------
    # Interactive move / resize
    # ------------------------------------------------------------------

    def begin_move(
        self, managed: "ManagedWindow", pointer: Tuple[int, int]
    ) -> None:
        self.drag = Drag(
            kind="move",
            managed=managed,
            start_pointer=pointer,
            start_rect=managed.frame_rect,
        )
        sc = self.wm.screens[managed.screen]
        self.conn.grab_pointer(
            sc.root,
            EventMask.ButtonPress
            | EventMask.ButtonRelease
            | EventMask.PointerMotion,
            cursor="fleur",
        )

    def begin_resize(
        self, managed: "ManagedWindow", pointer: Tuple[int, int]
    ) -> None:
        self.drag = Drag(
            kind="resize",
            managed=managed,
            start_pointer=pointer,
            start_rect=managed.frame_rect,
        )
        sc = self.wm.screens[managed.screen]
        self.conn.grab_pointer(
            sc.root,
            EventMask.ButtonPress
            | EventMask.ButtonRelease
            | EventMask.PointerMotion,
            cursor="sizing",
        )

    def _drag_motion(self, event: ev.MotionNotify) -> None:
        drag = self.drag
        if drag is None:
            return
        wm = self.wm
        dx = event.x_root - drag.start_pointer[0]
        dy = event.y_root - drag.start_pointer[1]
        if drag.kind == "move":
            drag.current = drag.start_rect.moved_to(
                drag.start_rect.x + dx, drag.start_rect.y + dy
            )
            # Opaque move (swm*opaqueMove: True): drag the window
            # itself instead of an outline.
            sc = wm.screens[drag.managed.screen]
            if sc.ctx.get_bool([], "opaqueMove", False):
                wm.move_frame(drag.managed, drag.current.x, drag.current.y)
            # Dragging into the panner continues the move as a
            # miniature drag (§6.1).
            if sc.panner is not None:
                panner_managed = wm.managed.get(sc.panner.window)
                if panner_managed is not None:
                    panner_rect = panner_managed.frame_rect
                    drag.in_panner = panner_rect.contains(
                        event.x_root, event.y_root
                    )
        else:
            drag.current = drag.start_rect.resized(
                max(8, drag.start_rect.width + dx),
                max(8, drag.start_rect.height + dy),
            )

    def _drag_release(self, event: ev.ButtonRelease) -> None:
        drag = self.drag
        if drag is None:
            return
        self.drag = None
        self.conn.ungrab_pointer()
        wm = self.wm
        managed = drag.managed
        if wm.managed.get(managed.client) is not managed:
            return  # the dragged client died mid-drag; nothing to place
        sc = wm.screens[managed.screen]
        dx = event.x_root - drag.start_pointer[0]
        dy = event.y_root - drag.start_pointer[1]
        if drag.kind == "move":
            target = Point(drag.start_rect.x + dx, drag.start_rect.y + dy)
            if drag.in_panner and sc.panner is not None:
                # Dropped onto the panner: place at the miniature's
                # desktop position (unless the panner itself raced
                # away, in which case fall back to a plain move).
                panner_managed = wm.managed.get(sc.panner.window)
                panner_rect = (
                    panner_managed.frame_rect
                    if panner_managed is not None
                    else None
                )
                if panner_rect is not None:
                    local = Point(
                        event.x_root - panner_rect.x - managed.client_offset.x,
                        event.y_root - panner_rect.y - managed.client_offset.y,
                    )
                    target = sc.panner.panner_to_desktop(
                        max(0, local.x), max(0, local.y)
                    )
            wm.move_managed_to(managed, target.x, target.y)
        else:
            new_width = drag.start_rect.width + dx
            new_height = drag.start_rect.height + dy
            client = managed.client_size
            deco_w = drag.start_rect.width - client.width
            deco_h = drag.start_rect.height - client.height
            wm.resize_managed(
                managed,
                max(1, new_width - deco_w),
                max(1, new_height - deco_h),
            )

    # ------------------------------------------------------------------
    # Overlay event handlers (selection / menu / drag)
    # ------------------------------------------------------------------

    def _on_overlay_button_press(self, event: ev.ButtonPress) -> bool:
        if self.selection is not None:
            self._selection_click(event)
            return True
        if self.active_menu is not None:
            menu, screen, context = self.active_menu
            item = menu.item_at(event.window)
            self.close_menu()
            if item is not None:
                for call in item.functions:
                    self.execute(
                        call,
                        screen=screen,
                        context=context,
                        pointer=(event.x_root, event.y_root),
                        event=event,
                    )
                return True
            # fall through: a press outside just closed the menu
        return False

    def _on_overlay_button_release(self, event: ev.ButtonRelease) -> bool:
        if self.drag is not None:
            self._drag_release(event)
            return True
        return False

    def _on_overlay_motion(self, event: ev.MotionNotify) -> bool:
        if self.drag is not None:
            self._drag_motion(event)
            return True
        return False

    # ------------------------------------------------------------------
    # Bindings dispatch handlers
    # ------------------------------------------------------------------

    def _on_bindings_button_press(self, event: ev.ButtonPress) -> bool:
        wm = self.wm
        entry = wm.object_windows.get(event.window)
        if entry is not None:
            obj, managed, screen = entry
            binding = self._binding_for_object(
                obj, event.button, event.state, release=False
            )
            if binding is not None:
                for call in binding.functions:
                    self.execute(
                        call,
                        screen=screen,
                        context=managed,
                        pointer=(event.x_root, event.y_root),
                        event=event,
                    )
                return True
        # Root / desktop background bindings.
        sc = self._screen_for_root_event(event.window)
        if sc is not None:
            binding = bindings_for_button(
                sc.root_bindings, event.button, event.state
            )
            if binding is not None:
                for call in binding.functions:
                    self.execute(
                        call,
                        screen=sc.number,
                        context=None,
                        pointer=(event.x_root, event.y_root),
                        event=event,
                    )
                return True
        return False

    def _on_bindings_motion(self, event: ev.MotionNotify) -> bool:
        # <BtnNMotion> / <Motion> bindings on objects (drag-to-move).
        entry = self.wm.object_windows.get(event.window)
        if entry is None:
            return False
        obj, managed, screen = entry
        binding = bindings_for_motion(obj.bindings, event.state)
        if binding is None:
            return False
        for call in binding.functions:
            self.execute(
                call,
                screen=screen,
                context=managed,
                pointer=(event.x_root, event.y_root),
                event=event,
            )
        return True

    def _on_key_press(self, event: ev.KeyPress) -> bool:
        entry = self.wm.object_windows.get(event.window)
        if entry is not None:
            obj, managed, screen = entry
            binding = bindings_for_key(obj.bindings, event.keysym, event.state)
            if binding is None:
                binding = self._parent_key_binding(obj, event)
            if binding is not None:
                for call in binding.functions:
                    self.execute(
                        call,
                        screen=screen,
                        context=managed,
                        pointer=(event.x_root, event.y_root),
                        event=event,
                    )
                return True
        sc = self._screen_for_root_event(event.window)
        if sc is not None:
            binding = bindings_for_key(
                sc.root_bindings, event.keysym, event.state
            )
            if binding is not None:
                for call in binding.functions:
                    self.execute(
                        call,
                        screen=sc.number,
                        event=event,
                        pointer=(event.x_root, event.y_root),
                    )
                return True
        return False

    # -- event helper plumbing ------------------------------------------

    def _binding_for_object(
        self, obj: SwmObject, button: int, state: int, release: bool
    ) -> Optional[Binding]:
        current: Optional[SwmObject] = obj
        while current is not None:
            binding = bindings_for_button(
                current.bindings, button, state, release
            )
            if binding is not None:
                return binding
            current = current.parent
        return None

    def _parent_key_binding(self, obj: SwmObject, event: ev.KeyPress):
        current = obj.parent
        while current is not None:
            binding = bindings_for_key(
                current.bindings, event.keysym, event.state
            )
            if binding is not None:
                return binding
            current = current.parent
        return None

    def _screen_for_root_event(
        self, window: int
    ) -> Optional["ScreenContext"]:
        for sc in self.wm.screens:
            if window == sc.root:
                return sc
            if sc.vdesk is not None and window == sc.vdesk.window:
                return sc
        return None
