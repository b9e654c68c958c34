"""The simulated X server.

This is the substrate the whole reproduction stands on: a single-process
X server implementing the core-protocol semantics a window manager
depends on — SubstructureRedirect interception of map/configure
requests, reparenting, save-sets, property change notification, event
selection and propagation, pointer/keyboard dispatch with grabs, and the
SHAPE extension.

Clients talk to the server through
:class:`~repro.xserver.client.ClientConnection`; every mutating entry
point here takes the acting client's id so redirect rules ("requests by
the redirecting client itself are not intercepted") hold exactly.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import events as ev
from .atoms import AtomTable
from .batch import ActiveBatch
from .bitmap import Bitmap
from .errors import (
    BadAccess,
    BadAtom,
    BadMatch,
    BadValue,
    BadWindow,
    XError,
)
from .event_mask import EventMask
from .faults import (
    ConnectionClosed,
    CRASH as FAULT_CRASH,
    ERROR as FAULT_ERROR,
    FLOOD as FAULT_FLOOD,
    KILL as FAULT_KILL,
    SHARD_CRASH as FAULT_SHARD_CRASH,
    SHARD_HANG as FAULT_SHARD_HANG,
    STALE as FAULT_STALE,
    REQUEST_KINDS,
    FaultPlan,
    ShardCrash,
    ShardHang,
    WMCrash,
    error_class,
)
from .geometry import Point, Rect, Size
from .input import (
    ActiveGrab,
    GrabTable,
    KeyboardState,
    PassiveGrab,
    PassiveKeyGrab,
    PointerState,
    )
from .properties import PROP_MODE_APPEND, PROP_MODE_REPLACE
from .quotas import QuotaLimits, QuotaManager
from .requests import REQUESTS
from .screen import Screen
from .stats import ServerStats
from .trace import Tracer, auto_enable, monotonic_ns
from .shape import SHAPE_BOUNDING, SHAPE_INVERT, SHAPE_SET, ShapeRegion
from .window import (
    INPUT_ONLY,
    INPUT_OUTPUT,
    Window,
)
from .xid import NONE, POINTER_ROOT, XIDAllocator, XIDRange

# SetInputFocus revert-to / focus special values.
FOCUS_NONE = NONE
FOCUS_POINTER_ROOT = POINTER_ROOT

# GrabPointer reply status.
GRAB_SUCCESS = 0
ALREADY_GRABBED = 1

SAVE_SET_INSERT = 0
SAVE_SET_DELETE = 1

#: Hard X11 limit on window coordinates/sizes (signed/unsigned 16 bit).
#: The paper (§6.1) cites 32767x32767 as the Virtual Desktop's ceiling.
MAX_WINDOW_SIZE = 32767
MIN_COORD = -32768
MAX_COORD = 32767
#: X11 border widths are CARD16.  With coordinates, these bounds keep
#: every position the server derives within the wire's 64-bit ints.
MAX_BORDER_WIDTH = 65535


def _check_position(x: int, y: int, border_width: int = 0) -> None:
    """BadValue for a window position or border width past X11's
    16-bit fields."""
    if not (MIN_COORD <= x <= MAX_COORD and MIN_COORD <= y <= MAX_COORD):
        raise BadValue((x, y), "coordinate out of 16-bit range")
    if not 0 <= border_width <= MAX_BORDER_WIDTH:
        raise BadValue(border_width, "border width out of 16-bit range")

#: Request faults that take a process down before the request runs:
#: the exception raised out of the request and the fault log's detail.
#: A WM crash leaves the requester's connection and windows to linger
#: until the supervisor cleans up the corpse; a shard crash or hang
#: tears nothing down here — the shard's state vanished wholesale or
#: froze, and the display router fences it and evacuates its clients
#: from the last checkpoint.
_CRASHES = {
    FAULT_CRASH: (WMCrash, "wm process died"),
    FAULT_SHARD_CRASH: (ShardCrash, "shard process died"),
    FAULT_SHARD_HANG: (ShardHang, "shard stopped answering"),
}


class XServer:
    """An in-process X server."""

    def __init__(
        self,
        screens: Sequence[Tuple[int, int, int]] = ((1152, 900, 8),),
        quota_limits: Optional[QuotaLimits] = None,
    ):
        """Create a server.

        *screens* is a sequence of ``(width, height, depth)`` tuples;
        depth 1 makes a monochrome screen (§3's ``swm.monochrome...``
        resources).  *quota_limits* tunes the per-client containment
        budgets (see :mod:`repro.xserver.quotas`); the defaults are
        generous enough that well-behaved workloads never notice them.
        """
        self.atoms = AtomTable()
        self.xids = XIDAllocator()
        self.windows: Dict[int, Window] = {}
        self.screens: List[Screen] = []
        self.clients: Dict[int, "EventSink"] = {}
        self._next_client = 1
        self.timestamp = 1
        self.pointer = PointerState()
        #: Set by every change to a viewable window (the only changes
        #: that can move the pointer window); the request that made the
        #: change re-derives the pointer window once its events are out.
        self._pointer_stale = False
        self.keyboard = KeyboardState()
        self.grabs = GrabTable()
        self.active_grab: Optional[ActiveGrab] = None
        self.focus: int = FOCUS_POINTER_ROOT
        self.focus_revert_to: int = FOCUS_POINTER_ROOT
        self.save_sets: Dict[int, set] = {}
        self.generation = 1  # bumped by reset() ("restarting X")
        self._stats = ServerStats()
        #: Structured tracing + flight recorder (see repro.xserver.trace).
        #: Disabled by default; provably inert until enabled.  Setting
        #: the SWM_FLIGHT_DIR environment variable enables it from birth
        #: so CI failure hooks can dump the flight recorder.
        self.tracer = Tracer()
        self._stats.attach_tracer(self.tracer)
        auto_enable(self.tracer)
        #: Per-client containment budgets (see repro.xserver.quotas).
        self.quotas = QuotaManager(self._stats, quota_limits)
        #: Active fault-injection plan, or None (see install_faults()).
        self.faults: Optional[FaultPlan] = None
        #: Open batch flush window, or None (see execute_batch()).
        self._batch: Optional[ActiveBatch] = None

        for number, (width, height, depth) in enumerate(screens):
            root_id = self.xids.allocate_server_id()
            root = Window(
                root_id,
                parent=None,
                rect=Rect(0, 0, width, height),
                win_class=INPUT_OUTPUT,
                owner=None,
            )
            root.mapped = True
            self.windows[root_id] = root
            self.screens.append(Screen(number, Size(width, height), root, depth))
            self._stats.track_cache(root.caches)

        # Pointer starts centered on screen 0.
        first = self.screens[0]
        self.pointer.x = first.width // 2
        self.pointer.y = first.height // 2
        self.pointer.window = self._window_at(first, self.pointer.x, self.pointer.y)

    # ------------------------------------------------------------------
    # Client bookkeeping
    # ------------------------------------------------------------------

    def register_client(self, sink: "EventSink") -> Tuple[int, XIDRange]:
        client_id = self._next_client
        self._next_client += 1
        self.clients[client_id] = sink
        self.save_sets[client_id] = set()
        return client_id, self.xids.new_range()

    def close_client(self, client_id: int) -> None:
        """Client shutdown: save-set windows survive (reparented back to
        their nearest root and remapped); everything else the client
        created is destroyed.  This is how a WM crash leaves clients
        alive, and how we simulate "X keeps running, WM exits"."""
        if client_id not in self.clients:
            return
        # Deregister first: a closing client must not receive (and
        # react to) the events its own teardown generates.
        sink = self.clients.pop(client_id)
        sink.connection_closed()
        save_set = self.save_sets.get(client_id, set())
        for wid in list(save_set):
            window = self.windows.get(wid)
            if window is None or window.destroyed:
                continue
            root = window.root()
            if window.parent is not root:
                was_viewable = window.viewable
                origin = window.position_in_root()
                self._do_reparent(window, root, origin.x, origin.y)
                if not window.mapped:
                    self._do_map(window)
                elif window.viewable and not was_viewable:
                    # Mapped all along but hidden by an unmapped
                    # ancestor (e.g. an iconified frame): reparenting
                    # to the root made it viewable, which must repaint
                    # it just as a fresh map would (ICCCM §4.1.3.1).
                    self._expose_tree(window)
        # Destroy remaining windows created by the client, top-levels first.
        for wid, window in list(self.windows.items()):
            if window.owner == client_id and not window.destroyed:
                self._destroy_tree(window)
        self.grabs.drop_client(client_id)
        if self.active_grab and self.active_grab.client == client_id:
            self.active_grab = None
        for window in self.windows.values():
            window.drop_client(client_id)
        self.save_sets.pop(client_id, None)
        self.quotas.drop_client(client_id)
        # Teardown reshapes the tree under the pointer; recompute so
        # the next device event starts from a live window.
        self._refresh_pointer_window()

    def abandon_client(self, client_id: int) -> None:
        """The client's process died but its resources were *not* torn
        down (RetainPermanent close-down, or the server simply has not
        noticed yet): the connection stops receiving events and its
        event selections, grabs and save-set claims are dropped, but
        every window it created survives untouched.  This is how a
        crashed WM leaves zombie frames behind for a successor to find
        and adopt — the worst-case cold-start the adoption pass exists
        for."""
        if client_id not in self.clients:
            return
        sink = self.clients.pop(client_id)
        sink.connection_closed()
        self.grabs.drop_client(client_id)
        if self.active_grab and self.active_grab.client == client_id:
            self.active_grab = None
        # Dropping selections matters beyond hygiene: a successor WM
        # cannot select SubstructureRedirect on the root while the dead
        # owner's selection is still registered (BadAccess).
        for window in self.windows.values():
            window.drop_client(client_id)
        self.save_sets.pop(client_id, None)
        self.quotas.drop_client(client_id)

    def reset(self) -> None:
        """Simulate an X server restart: every client resource is gone,
        root windows and *root window properties* survive a resurrection
        the way a fresh server + xinitrc would (properties are cleared —
        callers that need to persist state must write files, exactly the
        problem swm's session manager solves)."""
        for client_id in list(self.clients):
            self.close_client(client_id)
        for screen in self.screens:
            root = screen.root
            for child in list(root.children):
                self._destroy_tree(child)
            for atom in list(root.properties.list_atoms()):
                root.properties.delete(atom)
        self.generation += 1
        self.quotas.reset()
        self.active_grab = None
        self.focus = FOCUS_POINTER_ROOT
        first = self.screens[0]
        self.pointer = PointerState(
            x=first.width // 2, y=first.height // 2
        )
        self.pointer.window = self._window_at(first, self.pointer.x, self.pointer.y)
        self._pointer_stale = False

    def _tick(self) -> int:
        self.timestamp += 1
        # The public request name is the _tick caller; every request
        # entry point calls _tick exactly once, so this doubles as the
        # request counter behind stats() and as the fault-injection
        # decision point (the request's own state changes have not
        # happened yet when _tick runs).
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        self._stats.inc("requests", name)
        client_id = caller.f_locals.get("client_id")
        if self.faults is not None:
            self._apply_faults(name, caller.f_locals)
        elif client_id is not None and client_id not in self.clients:
            # A closed/killed connection's id must not keep mutating
            # the tree; the request fails like the broken pipe it is.
            raise ConnectionClosed(client_id)
        self.quotas.charge_request(name, client_id)
        return self.timestamp

    # ------------------------------------------------------------------
    # Fault injection (see repro.xserver.faults)
    # ------------------------------------------------------------------

    def install_faults(self, plan: FaultPlan) -> FaultPlan:
        """Install *plan* as the active fault plan.  Request faults
        (error/kill/stale) apply from the next request tick; delivery
        faults (drop/delay) apply at the first step of every client's
        delivery pipeline."""
        self.faults = plan
        return plan

    def clear_faults(self) -> Optional[FaultPlan]:
        """Remove and return the active fault plan, if any."""
        plan, self.faults = self.faults, None
        return plan

    def _flush_batch_events(self) -> None:
        """Synthesise the notifications deferred by the open batch flush
        window, if any (no-op otherwise).  Called at every batch split
        point: fault boundaries, quota denials, and batch end."""
        if self._batch is not None:
            self._batch.flush(self)

    #: Request parameters that name the window a stale-XID race targets,
    #: in the order _stale_target probes them.
    _STALE_PARAMS = (
        "wid",
        "window_id",
        "destination",
        "new_parent_id",
        "parent_id",
        "focus",
    )

    def _stale_target(self, caller_locals: dict) -> Optional[Window]:
        for param in self._STALE_PARAMS:
            wid = caller_locals.get(param)
            if not isinstance(wid, int):
                continue
            window = self.windows.get(wid)
            if window is None or window.destroyed or window.parent is None:
                continue  # unknown, already gone, or a root
            return window
        return None

    def _apply_faults(self, request: str, caller_locals: dict) -> None:
        """Apply the installed fault plan to one request tick, raising
        the injected XError / ConnectionClosed on the requester's
        behalf.  Runs before the request mutates any state."""
        plan = self.faults
        client_id = caller_locals.get("client_id")
        # Kills deferred by kill(when="after") land at the next tick:
        # the previous request's reply arrived, then the pipe broke.
        pending_kills = plan.take_pending_kills()
        if pending_kills:
            # A kill tears the tree down; any batched notifications
            # must land first or they would trail the DestroyNotifys.
            self._flush_batch_events()
            for victim in pending_kills:
                if victim in self.clients:
                    self.close_client(victim)
        if client_id is not None and client_id not in self.clients:
            raise ConnectionClosed(client_id)
        rule = plan.pick(REQUEST_KINDS, request, client_id)
        if rule is None:
            return
        # A rule was picked: the batch splits here, so everything
        # coalesced so far is synthesised before the fault's side
        # effects (error raise, connection close, stale destroy, flood)
        # take place.  A rule declined below for want of a target still
        # cost its draw, but is never recorded and never counts as fired.
        self._flush_batch_events()
        kind = rule.kind
        if kind == FAULT_STALE:
            target = self._stale_target(caller_locals)
            if target is None:
                return  # request names no live window to race
            detail = f"destroyed {target.id:#x}"
        elif kind in (FAULT_KILL, FAULT_FLOOD) and client_id not in self.clients:
            return  # no connection to kill or turn hostile
        elif kind == FAULT_KILL:
            detail = f"kill {rule.when}"
        elif kind == FAULT_FLOOD:
            detail = f"storm burst={rule.burst}"
        elif kind == FAULT_ERROR:
            detail = rule.error
        else:
            detail = _CRASHES[kind][1]
        plan.record(rule, request, client_id, detail)
        self._stats.inc("injected", kind)
        if self.tracer.enabled:
            self.tracer.note_fault(kind, request, self.timestamp, client_id, detail)
        if kind == FAULT_ERROR:
            raise error_class(rule.error)(
                None, f"{rule.error} injected into {request}"
            )
        if kind == FAULT_KILL:
            if rule.when == "after":
                plan.defer_kill(client_id)
                return
            self.close_client(client_id)
            raise ConnectionClosed(client_id)
        if kind in _CRASHES:
            raise _CRASHES[kind][0](request, client_id)
        if kind == FAULT_STALE:
            # The window dies between the caller's lookup and its use;
            # the request then fails with the server's own BadWindow.
            self._destroy_tree(target)
            self._refresh_pointer_window()
            return
        # Flood: the storm runs with the plan suspended — zero RNG
        # draws, no nested faults — so it is bit-deterministic, and the
        # triggering request then proceeds normally.
        with plan.suspended():
            self._run_flood(client_id, rule.burst)

    def _run_flood(self, client_id: int, burst: int) -> None:
        """Simulate *client_id* turning hostile mid-run: a synchronous
        burst of property rewrites and SendEvent spam issued on its
        behalf.  Quota enforcement applies as usual, and every denial
        lands on the flooder alone — an XError escaping here would leak
        into whatever innocent request triggered the fault, so all are
        contained on the spot."""
        target = None
        for window in self.windows.values():
            if window.owner == client_id and not window.destroyed:
                target = window
                break
        root = self.screens[0].root
        atom = self.atoms.intern("SWM_FLOOD")
        string = self.atoms.intern("STRING")
        for i in range(burst):
            try:
                if target is not None and not target.destroyed and i % 2 == 0:
                    self.change_property(
                        client_id, target.id, atom, string, 8,
                        "!" * 64, PROP_MODE_APPEND,
                    )
                else:
                    self.send_event(
                        client_id,
                        root.id,
                        ev.ClientMessage(
                            window=root.id, message_type=atom, data=(i,)
                        ),
                        EventMask.SubstructureNotify,
                    )
            except (XError, ConnectionClosed):
                continue

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------

    def stats(self) -> ServerStats:
        """The server's live counters: protocol requests by name, and
        per-event-type / per-client delivery and coalescing counts (see
        :mod:`repro.xserver.stats`)."""
        return self._stats

    # ------------------------------------------------------------------
    # Containment housekeeping (rate windows + grab watchdog)
    # ------------------------------------------------------------------

    def housekeeping_tick(self) -> None:
        """One containment housekeeping tick, driven by the WM's event
        pump (or directly by tests): resets the per-tick request-rate
        windows, ages throttled clients — pruning the passive grabs of
        clients jammed longer than the grab budget, so they stop
        stealing input they will never consume — and runs the grab
        watchdog, breaking an active grab whose holder is dead or has
        stopped draining its queue.  Housekeeping never ticks the
        request clock, so an installed fault plan's RNG is unperturbed.
        """
        quotas = self.quotas
        drained = quotas.begin_tick()
        for client_id in quotas.age_throttled(self.clients):
            if self.grabs.count_for_client(client_id):
                self.grabs.drop_client(client_id)
                self._stats.inc("grabs_broken", "passive-throttled")
        grab = self.active_grab
        if grab is None:
            return
        holder = grab.client
        if holder not in self.clients:
            self._break_active_grab("dead-holder")
            return
        if holder in drained and not quotas.is_throttled(holder):
            grab.held_ticks = 0
            return
        grab.held_ticks += 1
        if grab.held_ticks > quotas.limits.grab_tick_budget:
            self._break_active_grab(
                "throttled-holder"
                if quotas.is_throttled(holder)
                else "not-draining"
            )

    def _break_active_grab(self, reason: str) -> None:
        """Watchdog path: forcibly end the active pointer grab.  The
        pointer window is re-derived and ungrab-side crossing events
        are emitted, exactly the re-sync clients see after a voluntary
        UngrabPointer — the WM already handles these."""
        previous = self.pointer.window
        self.active_grab = None
        self._stats.inc("grabs_broken", reason)
        self._refresh_pointer_window()
        if self.pointer.window is previous and previous is not None:
            # The pointer window did not change, but clients under the
            # pointer were starved while the grab stole their events;
            # replay an EnterNotify so they re-sync their state.
            self._send_crossing_events(None, previous)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def window(self, wid: int) -> Window:
        win = self.windows.get(wid)
        if win is None or win.destroyed:
            raise BadWindow(wid)
        return win

    def screen_of(self, window: Window) -> Screen:
        root = window.root()
        for screen in self.screens:
            if screen.root is root:
                return screen
        raise BadWindow(window.id, "window not on any screen")

    def root_of_screen(self, number: int) -> Window:
        try:
            return self.screens[number].root
        except IndexError:
            raise BadValue(number, "no such screen") from None

    # ------------------------------------------------------------------
    # Event delivery
    # ------------------------------------------------------------------

    def _deliver(
        self,
        window: Window,
        event: ev.Event,
        mask: EventMask,
        exclude_client: Optional[int] = None,
    ) -> int:
        """Send *event* to every client that selected *mask* on *window*.
        Returns the number of clients it reached."""
        recipients = window.clients_selecting(mask)
        if not recipients:
            return 0
        event.time = self.timestamp
        count = 0
        for client_id in recipients:
            if client_id == exclude_client:
                continue
            sink = self.clients.get(client_id)
            if sink is not None:
                sink.queue_event(event)
                count += 1
        return count

    def _deliver_to_client(self, client_id: int, event: ev.Event) -> None:
        event.time = self.timestamp
        sink = self.clients.get(client_id)
        if sink is not None:
            sink.queue_event(event)

    def _structure_notify(self, window: Window, event: ev.Event) -> None:
        """Deliver to StructureNotify on the window and SubstructureNotify
        on its parent (the standard double delivery for structure events).
        The parent copy is re-reported relative to the parent window."""
        self._deliver(window, event, EventMask.StructureNotify)
        parent = window.parent
        if parent is not None:
            self._deliver(
                parent, event.reported_to(parent.id), EventMask.SubstructureNotify
            )

    # ------------------------------------------------------------------
    # Window creation / destruction
    # ------------------------------------------------------------------

    def create_window(
        self,
        client_id: int,
        wid: int,
        parent_id: int,
        x: int,
        y: int,
        width: int,
        height: int,
        border_width: int = 0,
        win_class: int = INPUT_OUTPUT,
        override_redirect: bool = False,
        event_mask: EventMask = EventMask.NoEvent,
        background: Optional[str] = None,
        cursor: Optional[str] = None,
    ) -> Window:
        self._tick()
        if not isinstance(override_redirect, bool):
            # A bad BOOL, as in change_window_attributes: stored as
            # given, a 5 would reach loopback watchers as 5.
            raise BadValue(override_redirect, "override_redirect is a BOOL")
        if wid in self.windows:
            raise BadValue(wid, "window id already in use")
        if width <= 0 or height <= 0:
            raise BadValue((width, height), "zero-size window")
        if width > MAX_WINDOW_SIZE or height > MAX_WINDOW_SIZE:
            raise BadValue((width, height), "window larger than 32767")
        _check_position(x, y, border_width)
        parent = self.window(parent_id)
        if parent.win_class == INPUT_ONLY and win_class == INPUT_OUTPUT:
            raise BadMatch(parent_id, "InputOutput child of InputOnly window")
        self.quotas.charge_window(client_id)
        window = Window(
            wid,
            parent,
            Rect(x, y, width, height),
            border_width=border_width,
            win_class=win_class,
            override_redirect=override_redirect,
            owner=client_id,
        )
        if background is not None:
            window.background = background
        if cursor is not None:
            window.cursor = cursor
        self.windows[wid] = window
        if event_mask:
            self._select_input(client_id, window, event_mask)
        self._deliver(
            parent,
            ev.CreateNotify(
                window=parent.id,
                parent=parent.id,
                x=x,
                y=y,
                width=width,
                height=height,
                border_width=border_width,
                override_redirect=override_redirect,
            ),
            EventMask.SubstructureNotify,
        )
        # A new window is unmapped: the pointer window cannot move.
        return window

    def destroy_window(self, client_id: int, wid: int) -> None:
        self._tick()
        window = self.window(wid)
        if window.is_root:
            raise BadWindow(wid, "cannot destroy a root window")
        self._destroy_tree(window)
        self._settle_pointer()

    def destroy_subwindows(self, client_id: int, wid: int) -> None:
        self._tick()
        window = self.window(wid)
        for child in list(window.children):
            self._destroy_tree(child)
        self._settle_pointer()

    def _destroy_tree(self, window: Window) -> None:
        """Destroy *window* and everything below it, children before
        their parent and siblings in ``list(children)`` order, taken
        when the walk reaches the parent.  Iterative: a client can nest
        windows deeper than the recursion limit within its quota."""
        # Re-entrancy: a DestroyNotify handler (the WM runs
        # synchronously in-process) may react by destroying related
        # windows — including ones this very walk is about to visit.
        if window.destroyed:
            return
        stack = [(window, iter(list(window.children)))]
        while stack:
            top, children = stack[-1]
            for child in children:
                if not child.destroyed:
                    stack.append((child, iter(list(child.children))))
                    break
            else:
                stack.pop()
                # A notify handler may have destroyed it during the walk.
                if not top.destroyed:
                    self._destroy_window(top)

    def _destroy_window(self, window: Window) -> None:
        """Destroy one window whose children are already gone."""
        if window.mapped:
            self._do_unmap(window)
        window.destroyed = True
        self._structure_notify(
            window,
            ev.DestroyNotify(window=window.id, destroyed_window=window.id),
        )
        window.detach()
        self.grabs.drop_window(window.id)
        for save_set in self.save_sets.values():
            save_set.discard(window.id)
        if self.focus == window.id:
            self.focus = self.focus_revert_to
        if self.active_grab and self.active_grab.window is window:
            self.active_grab = None
        self.quotas.note_window_destroyed(window.owner, window.id)
        self.windows.pop(window.id, None)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map_window(self, client_id: int, wid: int) -> bool:
        """MapWindow.  Returns False when the request was redirected to a
        window manager instead of performed."""
        self._tick()
        window = self.window(wid)
        if window.mapped:
            return True
        parent = window.parent
        if parent is not None and not window.override_redirect:
            redirector = parent.redirect_client()
            if redirector is not None and redirector != client_id:
                self._deliver_to_client(
                    redirector,
                    ev.MapRequest(
                        window=parent.id,
                        parent=parent.id,
                        requestor=wid,
                    ),
                )
                return False
        self._do_map(window)
        return True

    def map_subwindows(self, client_id: int, wid: int) -> None:
        self._tick()
        window = self.window(wid)
        for child in list(window.children):
            if not child.mapped:
                self.map_window(client_id, child.id)

    def _do_map(self, window: Window) -> None:
        window.mapped = True
        if window.viewable:
            self._pointer_stale = True
        self._structure_notify(
            window,
            ev.MapNotify(
                window=window.id,
                mapped_window=window.id,
                override_redirect=window.override_redirect,
            ),
        )
        if window.viewable:
            self._expose_tree(window)
        self._settle_pointer()

    def _expose_tree(self, window: Window) -> None:
        """Expose *window* and its mapped descendants, damage-driven.

        Iterative (fuzzer-built trees can exceed the recursion limit)
        and region-clipped: a fully occluded window gets no Expose at
        all, a partially visible one gets its damaged rects."""
        stack = [window]
        while stack:
            win = stack.pop()
            self._send_exposures(win)
            for child in reversed(win.children):
                if child.mapped:
                    stack.append(child)

    def _send_exposures(self, window: Window) -> None:
        """Deliver Expose for the window's visible region.

        The classic single full-window Expose is kept for the common
        fully-visible case; otherwise one Expose per damage rect, in
        y-x band order, with ``count`` descending to zero (so clients
        can accumulate until the last one, as in real X)."""
        if not window.clients_selecting(EventMask.Exposure):
            return  # nobody listening: skip the region work entirely
        clip = window.clip_region()
        if clip.empty:
            return  # fully occluded or unviewable: no damage
        origin = window.position_in_root()
        rect = window.rect
        rects = clip.rects()
        if len(rects) == 1 and rects[0] == Rect(
            origin.x, origin.y, rect.width, rect.height
        ):
            self._stats.inc("damage_rects")
            self._deliver(
                window,
                ev.Expose(
                    window=window.id, width=rect.width, height=rect.height
                ),
                EventMask.Exposure,
            )
            return
        self._stats.inc("damage_rects", n=len(rects))
        remaining = len(rects)
        for damage in rects:
            remaining -= 1
            self._deliver(
                window,
                ev.Expose(
                    window=window.id,
                    x=damage.x - origin.x,
                    y=damage.y - origin.y,
                    width=damage.width,
                    height=damage.height,
                    count=remaining,
                ),
                EventMask.Exposure,
            )

    def unmap_window(self, client_id: int, wid: int) -> None:
        self._tick()
        window = self.window(wid)
        if not window.mapped:
            return
        self._do_unmap(window)
        self._settle_pointer()

    def _do_unmap(self, window: Window) -> None:
        if window.viewable:
            self._pointer_stale = True
        window.mapped = False
        self._structure_notify(
            window,
            ev.UnmapNotify(window=window.id, unmapped_window=window.id),
        )

    # ------------------------------------------------------------------
    # Reparenting
    # ------------------------------------------------------------------

    def reparent_window(
        self, client_id: int, wid: int, new_parent_id: int, x: int, y: int
    ) -> None:
        """ReparentWindow, per the core protocol: unmap if mapped,
        splice into the new parent on top, send ReparentNotify, then
        issue a MapWindow *request* (subject to redirect) if the window
        had been mapped."""
        self._tick()
        window = self.window(wid)
        new_parent = self.window(new_parent_id)
        if window.is_root:
            raise BadMatch(wid, "cannot reparent a root window")
        if window is new_parent or window.is_ancestor_of(new_parent):
            raise BadMatch(wid, "window is an ancestor of the new parent")
        if window.root() is not new_parent.root():
            raise BadMatch(wid, "new parent on a different screen")
        _check_position(x, y)
        was_mapped = window.mapped
        was_viewable = window.viewable
        if was_mapped:
            self._do_unmap(window)
        self._do_reparent(window, new_parent, x, y)
        if was_mapped:
            self.map_window(client_id, wid)
        if was_viewable and not window.viewable:
            # The re-map was redirected to a window manager (or the new
            # parent is hidden): no map re-derived the pointer window,
            # which may have been this one.
            self._refresh_pointer_window()

    def _do_reparent(
        self, window: Window, new_parent: Window, x: int, y: int
    ) -> None:
        was_viewable = window.viewable
        window.reparent(new_parent)
        window.rect = window.rect.moved_to(x, y)
        if was_viewable or window.viewable:
            self._pointer_stale = True
        event = ev.ReparentNotify(
            window=window.id,
            reparented_window=window.id,
            parent=new_parent.id,
            x=x,
            y=y,
            override_redirect=window.override_redirect,
        )
        self._deliver(window, event, EventMask.StructureNotify)
        self._deliver(
            new_parent,
            event.reported_to(new_parent.id),
            EventMask.SubstructureNotify,
        )

    # ------------------------------------------------------------------
    # Configure
    # ------------------------------------------------------------------

    def configure_window(
        self,
        client_id: int,
        wid: int,
        value_mask: int,
        x: int = 0,
        y: int = 0,
        width: int = 0,
        height: int = 0,
        border_width: int = 0,
        sibling: int = NONE,
        stack_mode: int = ev.ABOVE,
    ) -> bool:
        """ConfigureWindow.  Returns False if redirected to the WM."""
        self._tick()
        window = self.window(wid)
        parent = window.parent
        if value_mask & ev.CWSibling and not value_mask & ev.CWStackMode:
            raise BadMatch(wid, "CWSibling without CWStackMode")
        if parent is not None and not window.override_redirect:
            redirector = parent.redirect_client()
            if redirector is not None and redirector != client_id:
                self._deliver_to_client(
                    redirector,
                    ev.ConfigureRequest(
                        window=wid,
                        parent=parent.id,
                        value_mask=value_mask,
                        x=x,
                        y=y,
                        width=width,
                        height=height,
                        border_width=border_width,
                        sibling=sibling,
                        stack_mode=stack_mode,
                    ),
                )
                return False
        self._do_configure(
            window, value_mask, x, y, width, height, border_width, sibling, stack_mode
        )
        return True

    def _do_configure(
        self,
        window: Window,
        value_mask: int,
        x: int,
        y: int,
        width: int,
        height: int,
        border_width: int,
        sibling: int,
        stack_mode: int,
    ) -> None:
        rect = window.rect
        new_x = x if value_mask & ev.CWX else rect.x
        new_y = y if value_mask & ev.CWY else rect.y
        new_w = width if value_mask & ev.CWWidth else rect.width
        new_h = height if value_mask & ev.CWHeight else rect.height
        if new_w <= 0 or new_h <= 0:
            raise BadValue((new_w, new_h), "zero-size configure")
        if new_w > MAX_WINDOW_SIZE or new_h > MAX_WINDOW_SIZE:
            raise BadValue((new_w, new_h), "size larger than 32767")
        _check_position(new_x, new_y, border_width
                        if value_mask & ev.CWBorderWidth else 0)
        restack = value_mask & ev.CWStackMode
        if restack:
            sibling_window = self.window(sibling) if sibling != NONE else None
            window.check_restack(stack_mode, sibling_window)
        batch = self._batch
        if batch is not None:
            # Inside a batch flush window: apply the state change now
            # (later requests in the batch must see it) but defer the
            # ConfigureNotify / Expose / pointer refresh to the flush,
            # where per-window runs coalesce last-write-wins.
            batch.note_configure(window)
        if value_mask & ev.CWBorderWidth:
            window.border_width = border_width
        grew = new_w > rect.width or new_h > rect.height
        window.rect = Rect(new_x, new_y, new_w, new_h)
        if restack:
            window.restack(stack_mode, sibling_window)
        if window.viewable:
            self._pointer_stale = True
        if batch is not None:
            return
        self._emit_configure_notify(window)
        if grew and window.viewable:
            self._send_exposures(window)
        self._settle_pointer()

    def _emit_configure_notify(self, window: Window) -> None:
        """ConfigureNotify reflecting the window's current state (used
        directly per-request, and once per window at batch flush).
        Nobody listening means no sibling scan and no event at all."""
        parent = window.parent
        if not window.clients_selecting(EventMask.StructureNotify) and (
            parent is None
            or not parent.clients_selecting(EventMask.SubstructureNotify)
        ):
            return
        above = window.sibling_below() if parent else None
        self._structure_notify(
            window,
            ev.ConfigureNotify(
                window=window.id,
                configured_window=window.id,
                x=window.rect.x,
                y=window.rect.y,
                width=window.rect.width,
                height=window.rect.height,
                border_width=window.border_width,
                above_sibling=above.id if above else NONE,
                override_redirect=window.override_redirect,
            ),
        )

    def circulate_window(self, client_id: int, wid: int, direction: int) -> None:
        """CirculateWindow: raise the lowest / lower the highest child
        that is occluded/occludes, subject to SubstructureRedirect."""
        self._tick()
        window = self.window(wid)
        mapped = [c for c in window.children if c.mapped]
        if not mapped:
            return
        if direction == ev.RAISE_LOWEST:
            target, place = mapped[0], ev.PLACE_ON_TOP
        elif direction == ev.LOWER_HIGHEST:
            target, place = mapped[-1], ev.PLACE_ON_BOTTOM
        else:
            raise BadValue(direction, "bad circulate direction")
        redirector = window.redirect_client()
        if redirector is not None and redirector != client_id:
            self._deliver_to_client(
                redirector,
                ev.CirculateRequest(window=target.id, parent=wid, place=place),
            )
            return
        target.restack(ev.ABOVE if place == ev.PLACE_ON_TOP else ev.BELOW)
        if window.viewable:
            self._pointer_stale = True
        self._deliver(
            window,
            ev.CirculateNotify(
                window=wid, circulated_window=target.id, place=place
            ),
            EventMask.SubstructureNotify,
        )
        self._settle_pointer()

    # ------------------------------------------------------------------
    # Attributes & input selection
    # ------------------------------------------------------------------

    def change_window_attributes(
        self,
        client_id: int,
        wid: int,
        event_mask: Optional[EventMask] = None,
        override_redirect: Optional[bool] = None,
        background: Optional[str] = None,
        cursor: Optional[str] = None,
        do_not_propagate_mask: Optional[EventMask] = None,
        win_gravity: Optional[int] = None,
    ) -> None:
        self._tick()
        window = self.window(wid)
        if override_redirect is not None and not isinstance(
            override_redirect, bool
        ):
            # X11 answers a bad BOOL with BadValue; stored as given, a
            # 5 would reach loopback watchers as 5 and wire peers as True.
            raise BadValue(override_redirect, "override_redirect is a BOOL")
        if event_mask is not None:
            self._select_input(client_id, window, event_mask)
        if override_redirect is not None:
            window.override_redirect = override_redirect
        if background is not None:
            window.background = background
        if cursor is not None:
            window.cursor = cursor
        if do_not_propagate_mask is not None:
            window.do_not_propagate_mask = do_not_propagate_mask
        if win_gravity is not None:
            window.win_gravity = win_gravity

    def _select_input(
        self, client_id: int, window: Window, mask: EventMask
    ) -> None:
        if mask & EventMask.SubstructureRedirect:
            holder = window.redirect_client()
            if holder is not None and holder != client_id:
                raise BadAccess(
                    window.id, "SubstructureRedirect already selected"
                )
        window.select_input(client_id, mask)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    def change_property(
        self,
        client_id: int,
        wid: int,
        atom: int,
        type_atom: int,
        fmt: int,
        data,
        mode: int = PROP_MODE_REPLACE,
    ) -> None:
        self._tick()
        window = self.window(wid)
        if not self.atoms.exists(atom):
            raise BadAtom(atom)
        if not self.atoms.exists(type_atom):
            raise BadAtom(type_atom)
        # Two-phase quota charge: check before the property map is
        # touched (a denial mutates nothing), commit only after the
        # change succeeded (a BadMatch/BadValue never overcharges).
        token = self.quotas.prepare_property(
            client_id, wid, atom, fmt, data, mode
        )
        window.properties.change(atom, type_atom, fmt, data, mode)
        self.quotas.commit_property(client_id, wid, atom, token)
        batch = self._batch
        if batch is not None:
            # Quota was charged per-request above; only the notify is
            # squashed (last state wins per window+atom at flush).
            batch.note_property(window, atom, ev.PROPERTY_NEW_VALUE)
            return
        self._deliver(
            window,
            ev.PropertyNotify(
                window=wid, atom=atom, state=ev.PROPERTY_NEW_VALUE
            ),
            EventMask.PropertyChange,
        )

    def get_property(self, client_id: int, wid: int, atom: int):
        window = self.window(wid)
        if not self.atoms.exists(atom):
            raise BadAtom(atom)
        return window.properties.get(atom)

    def delete_property(self, client_id: int, wid: int, atom: int) -> None:
        self._tick()
        window = self.window(wid)
        if window.properties.delete(atom):
            self.quotas.refund_property(wid, atom)
            batch = self._batch
            if batch is not None:
                batch.note_property(window, atom, ev.PROPERTY_DELETE)
                return
            self._deliver(
                window,
                ev.PropertyNotify(window=wid, atom=atom, state=ev.PROPERTY_DELETE),
                EventMask.PropertyChange,
            )

    def list_properties(self, client_id: int, wid: int) -> List[int]:
        return self.window(wid).properties.list_atoms()

    # ------------------------------------------------------------------
    # Batched execution (see repro.xserver.batch)
    # ------------------------------------------------------------------

    def execute_batch(self, client_id: int, ops: Sequence) -> List[dict]:
        """Execute a sequence of batchable requests in one flush window.

        Each op is ``(name, args, kwargs)`` with *name* a request the
        table in :mod:`repro.xserver.requests` marks batchable.  Every
        op runs through its real entry point — so request ticks, fault
        draws, quota charges, stats and traces are per logical request,
        bit-identical to unbatched execution — but event synthesis and
        the pointer refresh are deferred and coalesced (last write wins
        per window / per window+atom) until the batch flushes.

        An X error (including a quota denial) splits the batch: what
        was coalesced so far is synthesised, the error is recorded as
        that op's result, and execution continues.  Connection loss and
        injected crashes propagate after draining.  Returns one
        ``{"ok": ...}`` result dict per op.
        """
        # Reentrancy: a flush delivers events, loopback handlers run
        # synchronously and may issue requests — a nested execute_batch
        # joins the open flush window instead of failing.
        outer = self._batch
        batch = outer if outer is not None else ActiveBatch()
        self._stats.inc("batched", n=len(ops))
        self._batch = batch
        results: List[dict] = []
        try:
            for op in ops:
                try:
                    name, args, kwargs = op
                    args = tuple(args)
                    kwargs = dict(kwargs)
                except (TypeError, ValueError):
                    results.append(
                        {"ok": False, "error": "BadValue",
                         "detail": "malformed batch op"}
                    )
                    continue
                spec = REQUESTS.get(name)
                if spec is None or not spec.batchable:
                    results.append(
                        {"ok": False, "error": "BadValue",
                         "detail": f"{name!r} is not batchable"}
                    )
                    continue
                method = getattr(self, name)
                tracer = self.tracer
                started = monotonic_ns() if tracer.enabled else 0
                notes: Tuple[str, ...] = ("batch",)
                try:
                    result = {"ok": True,
                              "result": method(client_id, *args, **kwargs)}
                except XError as err:
                    error = type(err).__name__
                    result = {"ok": False, "error": error, "detail": str(err)}
                    notes = ("batch", "error=" + error)
                if tracer.enabled:
                    tracer.record_request(
                        name, self.timestamp, client_id,
                        monotonic_ns() - started, notes,
                    )
                if not result["ok"]:
                    # Fault/quota boundary: split the batch (anything
                    # a fired fault rule deferred was already flushed
                    # in _apply_faults; quota denials split here).
                    batch.flush(self)
                results.append(result)
        finally:
            self._batch = outer
            if outer is None:
                batch.flush(self)
        return results

    # ------------------------------------------------------------------
    # SendEvent
    # ------------------------------------------------------------------

    def send_event(
        self,
        client_id: int,
        destination: int,
        event: ev.Event,
        event_mask: EventMask = EventMask.NoEvent,
        propagate: bool = False,
    ) -> None:
        """SendEvent.  With a zero mask the event goes to the creator of
        the destination window, per the protocol."""
        self._tick()
        if destination == POINTER_ROOT:
            window = self.pointer.window or self.screens[0].root
        else:
            window = self.window(destination)
        event.send_event = True
        if event_mask == EventMask.NoEvent:
            owner = window.owner
            if owner is not None:
                event.time = self.timestamp
                self._deliver_to_client(owner, event)
            return
        delivered = self._deliver(window, event, event_mask)
        if not delivered and propagate:
            for ancestor in window.ancestors():
                if self._deliver(ancestor, event, event_mask):
                    break

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query_tree(self, wid: int) -> Tuple[int, int, List[int]]:
        """(root, parent, children bottom-to-top)."""
        window = self.window(wid)
        parent = window.parent.id if window.parent else NONE
        return window.root().id, parent, [c.id for c in window.children]

    def get_geometry(self, wid: int) -> Tuple[int, int, int, int, int]:
        window = self.window(wid)
        rect = window.rect
        return rect.x, rect.y, rect.width, rect.height, window.border_width

    def translate_coordinates(
        self, src_wid: int, dst_wid: int, x: int, y: int
    ) -> Tuple[int, int, int]:
        """(dst_x, dst_y, child) like XTranslateCoordinates."""
        src = self.window(src_wid)
        dst = self.window(dst_wid)
        if src.root() is not dst.root():
            raise BadMatch(src_wid, "windows on different screens")
        src_origin = src.position_in_root()
        dst_origin = dst.position_in_root()
        dst_x = x + src_origin.x - dst_origin.x
        dst_y = y + src_origin.y - dst_origin.y
        # Child lookup shares query_pointer's hit-test rules (borders and
        # SHAPE honoured) via the destination's stacking index.
        hit = dst.child_at_in_root(x + src_origin.x, y + src_origin.y)
        return dst_x, dst_y, hit.id if hit is not None else NONE

    def query_pointer(self, wid: int) -> dict:
        window = self.window(wid)
        screen = self.screen_of(window)
        same = screen is self.screens[self.pointer.screen]
        origin = window.position_in_root()
        child = NONE
        if same:
            hit = window.child_at_in_root(self.pointer.x, self.pointer.y)
            if hit is not None:
                child = hit.id
        return {
            "root": screen.root.id,
            "child": child,
            "same_screen": same,
            "root_x": self.pointer.x,
            "root_y": self.pointer.y,
            "win_x": self.pointer.x - origin.x,
            "win_y": self.pointer.y - origin.y,
            "mask": self.pointer.state_mask(self.keyboard.modifier_mask()),
        }

    def get_window_attributes(self, wid: int) -> dict:
        window = self.window(wid)
        return {
            "win_class": window.win_class,
            "map_state": window.map_state,
            "override_redirect": window.override_redirect,
            "all_event_masks": window.all_masks(),
            "do_not_propagate_mask": window.do_not_propagate_mask,
            "win_gravity": window.win_gravity,
            "background": window.background,
            "cursor": window.cursor,
        }

    # ------------------------------------------------------------------
    # Save set
    # ------------------------------------------------------------------

    def change_save_set(self, client_id: int, wid: int, mode: int) -> None:
        self._tick()
        window = self.window(wid)
        if window.owner == client_id:
            raise BadMatch(wid, "cannot save-set your own window")
        save_set = self.save_sets.setdefault(client_id, set())
        if mode == SAVE_SET_INSERT:
            save_set.add(wid)
        elif mode == SAVE_SET_DELETE:
            save_set.discard(wid)
        else:
            raise BadValue(mode, "bad save-set mode")

    # ------------------------------------------------------------------
    # Focus
    # ------------------------------------------------------------------

    def set_input_focus(
        self, client_id: int, focus: int, revert_to: int = FOCUS_POINTER_ROOT
    ) -> None:
        self._tick()
        old = self.focus
        if focus not in (FOCUS_NONE, FOCUS_POINTER_ROOT):
            window = self.window(focus)
            if not window.viewable:
                raise BadMatch(focus, "focus window not viewable")
        self.focus = focus
        self.focus_revert_to = revert_to
        if old not in (FOCUS_NONE, FOCUS_POINTER_ROOT) and old in self.windows:
            self._deliver(
                self.windows[old], ev.FocusOut(window=old), EventMask.FocusChange
            )
        if focus not in (FOCUS_NONE, FOCUS_POINTER_ROOT):
            self._deliver(
                self.windows[focus], ev.FocusIn(window=focus), EventMask.FocusChange
            )

    def get_input_focus(self) -> Tuple[int, int]:
        return self.focus, self.focus_revert_to

    # ------------------------------------------------------------------
    # Pointer location / hit testing
    # ------------------------------------------------------------------

    def _window_at(self, screen: Screen, x: int, y: int) -> Window:
        """The deepest viewable InputOutput/InputOnly window containing
        (x, y) in root coordinates, honouring borders and SHAPE regions.
        Descends each window's cached stacking index (top-to-bottom
        bounding boxes in root coordinates), so a steady-state pointer
        sweep never re-derives child origins."""
        window = screen.root
        while True:
            hit = window.child_at_in_root(x, y)
            if hit is None:
                return window
            window = hit

    def _settle_pointer(self) -> None:
        """Re-derive the pointer window if a viewable window changed
        since it was last derived; a change confined to unviewable
        windows cannot move it, so it costs no hit test."""
        if self._pointer_stale:
            self._refresh_pointer_window()

    def _refresh_pointer_window(self) -> None:
        """Re-derive the pointer window after tree changes, emitting
        crossing events when it changed."""
        self._pointer_stale = False
        screen = self.screens[self.pointer.screen]
        new = self._window_at(screen, self.pointer.x, self.pointer.y)
        old = self.pointer.window
        if old is new:
            return
        self.pointer.window = new
        self._send_crossing_events(old, new)

    def _send_crossing_events(
        self, old: Optional[Window], new: Optional[Window]
    ) -> None:
        if old is new:
            return
        state = self.pointer.state_mask(self.keyboard.modifier_mask())

        def make(cls, window: Window, detail: int):
            origin = window.position_in_root()
            return cls(
                window=window.id,
                root=window.root().id,
                x=self.pointer.x - origin.x,
                y=self.pointer.y - origin.y,
                x_root=self.pointer.x,
                y_root=self.pointer.y,
                state=state,
                detail=detail,
            )

        # The interest cache makes "does anyone care" O(1); skip the
        # event construction entirely when nothing selects crossings.
        if (
            old is not None
            and not old.destroyed
            and old.clients_selecting(EventMask.LeaveWindow)
        ):
            detail = ev.NOTIFY_NONLINEAR
            if new is not None:
                if old.is_ancestor_of(new):
                    detail = ev.NOTIFY_INFERIOR
                elif new.is_ancestor_of(old):
                    detail = ev.NOTIFY_ANCESTOR
            self._deliver(
                old, make(ev.LeaveNotify, old, detail), EventMask.LeaveWindow
            )
        if new is not None and new.clients_selecting(EventMask.EnterWindow):
            detail = ev.NOTIFY_NONLINEAR
            if old is not None and not old.destroyed:
                if new.is_ancestor_of(old):
                    detail = ev.NOTIFY_INFERIOR
                elif old.is_ancestor_of(new):
                    detail = ev.NOTIFY_ANCESTOR
            self._deliver(
                new, make(ev.EnterNotify, new, detail), EventMask.EnterWindow
            )

    def warp_pointer(
        self, client_id: int, dst_wid: int, x: int, y: int
    ) -> None:
        """XWarpPointer relative to a destination window (or relative
        motion when dst is NONE)."""
        self._tick()
        if dst_wid == NONE:
            new_x = self.pointer.x + x
            new_y = self.pointer.y + y
        else:
            dst = self.window(dst_wid)
            origin = dst.position_in_root()
            new_x = origin.x + x
            new_y = origin.y + y
        self.motion(new_x, new_y)

    # ------------------------------------------------------------------
    # Device event injection (the "user")
    # ------------------------------------------------------------------

    def motion(self, x: int, y: int, screen: Optional[int] = None) -> None:
        """Move the pointer to root coordinates (x, y)."""
        self._tick()
        if screen is not None:
            self.pointer.screen = screen
        scr = self.screens[self.pointer.screen]
        x = max(0, min(scr.width - 1, x))
        y = max(0, min(scr.height - 1, y))
        if (x, y) == (self.pointer.x, self.pointer.y):
            return
        self.pointer.x = x
        self.pointer.y = y
        old = self.pointer.window
        new = self._window_at(scr, x, y)
        self.pointer.window = new
        if old is not new:
            self._send_crossing_events(old, new)
        motion_mask = EventMask.PointerMotion
        if self.pointer.buttons:
            motion_mask |= EventMask.ButtonMotion
        self._dispatch_pointer_event(ev.MotionNotify, motion_mask)

    def button_press(self, button: int, modifiers: int = 0) -> None:
        self._tick()
        state_before = self.pointer.state_mask(
            self.keyboard.modifier_mask() | modifiers
        )
        if self.active_grab is None and self.grabs.has_button_grabs():
            chain = self._pointer_chain()
            grab = self.grabs.find_button_grab(chain, button, state_before)
            if grab is not None:
                self.active_grab = ActiveGrab(
                    client=grab.client,
                    window=grab.window,
                    event_mask=grab.event_mask,
                    owner_events=grab.owner_events,
                    cursor=grab.cursor,
                    trigger_button=button,
                )
        self.pointer.buttons.add(button)
        self._dispatch_pointer_event(
            ev.ButtonPress,
            EventMask.ButtonPress,
            button=button,
            state=state_before,
        )

    def button_release(self, button: int, modifiers: int = 0) -> None:
        self._tick()
        state_before = self.pointer.state_mask(
            self.keyboard.modifier_mask() | modifiers
        )
        self.pointer.buttons.discard(button)
        self._dispatch_pointer_event(
            ev.ButtonRelease,
            EventMask.ButtonRelease,
            button=button,
            state=state_before,
        )
        grab = self.active_grab
        if (
            grab is not None
            and grab.trigger_button == button
            and not self.pointer.buttons
        ):
            self.active_grab = None

    def key_press(self, keysym: str) -> None:
        self._tick()
        self.keyboard.down.add(keysym)
        self._dispatch_key_event(ev.KeyPress, EventMask.KeyPress, keysym)

    def key_release(self, keysym: str) -> None:
        self._tick()
        self.keyboard.down.discard(keysym)
        self._dispatch_key_event(ev.KeyRelease, EventMask.KeyRelease, keysym)

    def _pointer_chain(self) -> List[Window]:
        """Root-first chain of windows from root to the pointer window."""
        window = self.pointer.window
        if window is None:
            return [self.screens[self.pointer.screen].root]
        chain = [window]
        chain.extend(window.ancestors())
        chain.reverse()
        return chain

    def _dispatch_pointer_event(
        self,
        cls,
        mask: EventMask,
        button: int = 0,
        state: Optional[int] = None,
    ) -> None:
        pointer = self.pointer
        if state is None:
            state = pointer.state_mask(self.keyboard.modifier_mask())
        source = pointer.window or self.screens[pointer.screen].root
        grab = self.active_grab

        def build(window: Window, child: int) -> ev.Event:
            origin = window.position_in_root()
            kwargs = dict(
                window=window.id,
                root=window.root().id,
                subwindow=child,
                x=pointer.x - origin.x,
                y=pointer.y - origin.y,
                x_root=pointer.x,
                y_root=pointer.y,
                state=state,
            )
            if cls in (ev.ButtonPress, ev.ButtonRelease):
                kwargs["button"] = button
            return cls(**kwargs)

        if grab is not None:
            # Owner-events: deliver normally if some window of the
            # grabbing client would get the event; else to grab window.
            if grab.owner_events:
                target, child = self._propagation_target(source, mask, grab.client)
                if target is not None:
                    self._deliver_to_client(grab.client, build(target, child))
                    return
            if grab.event_mask & mask:
                child = source.id if source is not grab.window else NONE
                self._deliver_to_client(grab.client, build(grab.window, child))
            return

        target, child = self._propagation_target(source, mask, None)
        if target is not None:
            self._deliver(target, build(target, child), mask)

    def _propagation_target(
        self, source: Window, mask: EventMask, only_client: Optional[int]
    ) -> Tuple[Optional[Window], int]:
        """Walk up from *source* until a window has a matching selection
        (optionally by one specific client), honouring do-not-propagate.
        Returns (window, child-subwindow-id)."""
        child = NONE
        window: Optional[Window] = source
        while window is not None:
            selecting = (
                window.clients_selecting(mask)
                if only_client is None
                else [only_client]
                if window.mask_for(only_client) & mask
                else []
            )
            if selecting:
                return window, child
            if window.do_not_propagate_mask & mask:
                return None, NONE
            child = window.id
            window = window.parent
        return None, NONE

    def _dispatch_key_event(self, cls, mask: EventMask, keysym: str) -> None:
        state = self.pointer.state_mask(self.keyboard.modifier_mask())
        # Passive key grabs activate from the root down.
        if (
            cls is ev.KeyPress
            and self.active_grab is None
            and self.grabs.has_key_grabs()
        ):
            grab = self.grabs.find_key_grab(self._pointer_chain(), keysym, state)
            if grab is not None:
                origin = grab.window.position_in_root()
                self._deliver_to_client(
                    grab.client,
                    cls(
                        window=grab.window.id,
                        root=grab.window.root().id,
                        x=self.pointer.x - origin.x,
                        y=self.pointer.y - origin.y,
                        x_root=self.pointer.x,
                        y_root=self.pointer.y,
                        state=state,
                        keysym=keysym,
                    ),
                )
                return
        # Normal delivery: to the focus window, or pointer window under
        # PointerRoot focus.
        if self.focus == FOCUS_NONE:
            return
        if self.focus == FOCUS_POINTER_ROOT:
            source = self.pointer.window or self.screens[self.pointer.screen].root
        else:
            focus_window = self.windows.get(self.focus)
            if focus_window is None:
                return
            source = self.pointer.window or focus_window
            # Events go to the focus window unless the pointer is in a
            # descendant of it.
            if not (
                source is focus_window or focus_window.is_ancestor_of(source)
            ):
                source = focus_window
        target, child = self._propagation_target(source, mask, None)
        if target is None:
            return
        origin = target.position_in_root()
        self._deliver(
            target,
            cls(
                window=target.id,
                root=target.root().id,
                subwindow=child,
                x=self.pointer.x - origin.x,
                y=self.pointer.y - origin.y,
                x_root=self.pointer.x,
                y_root=self.pointer.y,
                state=state,
                keysym=keysym,
            ),
            mask,
        )

    # ------------------------------------------------------------------
    # Grabs
    # ------------------------------------------------------------------

    def grab_pointer(
        self,
        client_id: int,
        wid: int,
        event_mask: EventMask,
        owner_events: bool = False,
        cursor: Optional[str] = None,
    ) -> int:
        self._tick()
        window = self.window(wid)
        if self.active_grab is not None and self.active_grab.client != client_id:
            return ALREADY_GRABBED
        self.active_grab = ActiveGrab(
            client=client_id,
            window=window,
            event_mask=event_mask,
            owner_events=owner_events,
            cursor=cursor,
            trigger_button=None,
        )
        return GRAB_SUCCESS

    def ungrab_pointer(self, client_id: int) -> None:
        self._tick()
        if self.active_grab is not None and self.active_grab.client == client_id:
            self.active_grab = None

    def grab_button(
        self,
        client_id: int,
        wid: int,
        button: int,
        modifiers: int,
        event_mask: EventMask,
        owner_events: bool = False,
        cursor: Optional[str] = None,
    ) -> None:
        self._tick()
        window = self.window(wid)
        self.quotas.charge_grab(client_id, self.grabs)
        self.grabs.add_button(
            PassiveGrab(
                client=client_id,
                window=window,
                button=button,
                modifiers=modifiers,
                event_mask=event_mask,
                owner_events=owner_events,
                cursor=cursor,
            )
        )

    def ungrab_button(
        self, client_id: int, wid: int, button: int, modifiers: int
    ) -> None:
        self._tick()
        self.grabs.remove_button(wid, button, modifiers)

    def grab_key(
        self,
        client_id: int,
        wid: int,
        keysym: str,
        modifiers: int,
        owner_events: bool = False,
    ) -> None:
        self._tick()
        window = self.window(wid)
        self.quotas.charge_grab(client_id, self.grabs)
        self.grabs.add_key(
            PassiveKeyGrab(
                client=client_id,
                window=window,
                keysym=keysym,
                modifiers=modifiers,
                owner_events=owner_events,
            )
        )

    # ------------------------------------------------------------------
    # SHAPE extension
    # ------------------------------------------------------------------

    def shape_set_mask(
        self,
        client_id: int,
        wid: int,
        mask: Optional[Bitmap],
        op: int = SHAPE_SET,
        x_offset: int = 0,
        y_offset: int = 0,
    ) -> None:
        """ShapeMask: combine a bitmap into the window's bounding shape.
        A None mask removes the shape (back to rectangular).  A mask
        that is neither, or an op outside Set..Invert, is BadValue
        before the window changes."""
        self._tick()
        window = self.window(wid)
        if mask is not None and not isinstance(mask, Bitmap):
            raise BadValue(mask, "shape mask is not a bitmap")
        if not isinstance(op, int) or not SHAPE_SET <= op <= SHAPE_INVERT:
            raise BadValue(op, "bad shape operation")
        if mask is None:
            window.shape = None
            shaped = False
        else:
            region = ShapeRegion(mask, x_offset, y_offset)
            if window.shape is None or op == SHAPE_SET:
                window.shape = region
            else:
                window.shape = window.shape.combine(region, op)
            shaped = True
        if window.viewable:
            self._pointer_stale = True
        extents = window.shape.extents() if window.shape else None
        event = ev.ShapeNotify(
            window=wid,
            kind=SHAPE_BOUNDING,
            shaped=shaped,
            x=extents[0] if extents else 0,
            y=extents[1] if extents else 0,
            width=extents[2] if extents else window.width,
            height=extents[3] if extents else window.height,
        )
        # ShapeNotify goes to clients that asked via ShapeSelectInput;
        # we deliver under StructureNotify which every WM selects anyway.
        self._deliver(window, event, EventMask.StructureNotify)
        self._settle_pointer()

    def shape_query(self, wid: int) -> Optional[ShapeRegion]:
        return self.window(wid).shape

    def window_is_shaped(self, wid: int) -> bool:
        return self.window(wid).shape is not None


class EventSink:
    """Interface for client connections: receives delivered events."""

    def queue_event(self, event: ev.Event) -> None:  # pragma: no cover
        raise NotImplementedError

    def connection_closed(self) -> None:
        """Server-side teardown notification (``close_client`` /
        ``abandon_client``): the sink is no longer registered and will
        receive no further events.  Wire transports close their socket
        here; the default is a no-op."""
