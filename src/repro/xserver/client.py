"""Client connections: the simulated Xlib.

A :class:`ClientConnection` is what an application (or the window
manager — swm is just a client, §1) holds.  It mints XIDs from its
client-side range, issues requests under its own client id so redirect
semantics apply, and drains its private event queue with ``next_event``
/ ``pending``.

Since the wire refactor the connection is a *transport-agnostic proxy*:
every request and every drained event goes through a
:class:`~repro.xserver.wire.transport.Transport`.  The default is the
deterministic in-process :class:`LoopbackTransport` (constructed from a
``server`` argument, so ``ClientConnection(server)`` works exactly as
it always did); passing ``transport=TcpTransport(...)`` runs the same
client code over a real socket.  The server-side half — client id, XID
range, pipeline, quotas — lives in
:class:`~repro.xserver.wire.transport.ServerConnection`, which is what
``server.clients`` now holds.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import events as ev
from .atoms import PREDEFINED
from .bitmap import Bitmap
from .event_mask import EventMask
from .properties import PROP_MODE_REPLACE, Property
from .requests import REQUESTS
from .server import (
    FOCUS_POINTER_ROOT,
    SAVE_SET_DELETE,
    SAVE_SET_INSERT,
    XServer,
)
from .window import INPUT_OUTPUT
from .wire.transport import LoopbackTransport, Transport

#: One buffered batch op: (request name, args, kwargs).
_Op = Tuple[str, tuple, dict]

#: ConfigureWindow keyword -> value-mask bit.
_CONFIGURE_BITS = {
    "x": ev.CWX,
    "y": ev.CWY,
    "width": ev.CWWidth,
    "height": ev.CWHeight,
    "border_width": ev.CWBorderWidth,
    "sibling": ev.CWSibling,
    "stack_mode": ev.CWStackMode,
}


class QueueEmpty(IndexError):
    """``next_event`` on an empty queue.  Subclasses :class:`IndexError`
    so pre-existing ``except IndexError`` callers keep working, while
    new code can distinguish "no events pending" from a genuine
    indexing bug."""


class ClientConnection:
    """One client's connection to the server, over some transport."""

    def __init__(
        self,
        server: Optional[XServer] = None,
        name: str = "client",
        coalesce: bool = True,
        transport: Optional[Transport] = None,
    ):
        if transport is None:
            if server is None:
                raise TypeError(
                    "ClientConnection needs a server (loopback) or a transport"
                )
            transport = LoopbackTransport(server)
        self._transport = transport
        self.name = name
        #: Optional callbacks fired for every event the queue accepted,
        #: for clients that behave reactively (the canned clients use
        #: this).  Never fired for dropped events.
        self.event_handlers: List[Callable[[ev.Event], None]] = []
        transport.connect(self, name, coalesce)
        self.client_id = transport.client_id
        self._xids = transport.xids
        self._queue = transport.queue
        #: The live server on loopback; None across a real wire.
        self.server = transport.server
        self.closed = False
        #: While a batch() is open: its buffered (name, args, kwargs)
        #: ops and the result dicts accumulated across its flushes.
        self._batch: Optional[Tuple[List[_Op], List[dict]]] = None
        #: name -> atom for every name this connection has interned,
        #: seeded with the predefined atoms; kept across a resume.
        self._atoms: Dict[str, int] = dict(PREDEFINED)

    # -- connection lifecycle -------------------------------------------------

    def close(self) -> None:
        """Close the connection (client exit / kill).  After a
        *server-side* teardown (fault KILL, ``abandon_client``) this is
        a pure no-op: the server already ran teardown once, and a
        voluntary close must not re-enter ``close_client`` for a dead
        id."""
        if self.closed:
            return
        self.closed = True
        self._transport.close()

    def is_alive(self) -> bool:
        """True while the server still holds this connection.  The
        server can tear a connection down behind the client's back
        (fault injection, server reset); ``closed`` only tracks
        *voluntary* close() calls, so check this before reusing a
        connection that may have died mid-protocol."""
        return not self.closed and self._transport.is_alive()

    def _check_alive(self) -> None:
        """Fail fast before issuing a request on a dead connection.
        Without this a zombie connection would keep mutating the tree
        under its stale client id (the server double-checks at its own
        request tick, but failing here keeps the error at the caller's
        line).  Local queue drains and reads stay usable after death —
        teardown code inspects what a corpse last saw."""
        if not self.is_alive():
            raise self._transport.closed_error(self.client_id)

    def __repr__(self) -> str:
        return f"<ClientConnection {self.name!r} id={self.client_id}>"

    def _request(self, name: str, *args, **kwargs):
        if self._batch is not None:
            ops, results = self._batch
            spec = REQUESTS.get(name)
            if spec is not None and spec.batchable:
                ops.append((name, args, kwargs))
                return None
            # A non-batchable request (query, map, destroy...) must see
            # the buffered mutations applied, in order: flush first.
            self._flush_batch(ops, results)
        return self._transport.request(name, args, kwargs)

    def _flush_batch(self, ops: List[_Op], results: List[dict]) -> None:
        """Send *ops* as one execute_batch request, emptying the list,
        and add the per-op result dicts to *results*."""
        if not ops:
            return
        pending = list(ops)
        del ops[:]
        sent = self._transport.request("execute_batch", (pending,), {})
        if sent:
            results.extend(sent)

    @contextmanager
    def batch(self) -> Iterator[List[dict]]:
        """Coalesce configure/property mutations issued inside the
        ``with`` block into server-side batch flush windows (see
        :meth:`XServer.execute_batch`): one ConfigureNotify per window
        (last write wins), property overwrites squashed, one pointer
        refresh per flush.  Requests that cannot batch flush the buffer
        first, so request order is always preserved.  Per-op X errors
        become result dicts on the yielded list instead of raising;
        nested ``batch()`` blocks join the outermost one.

        Events produced by a flush are delivered (and handlers run)
        when the flush happens — at the latest when the block exits.
        """
        if self._batch is not None:
            yield self._batch[1]  # nested: join the outer batch
            return
        self._check_alive()
        ops: List[_Op] = []
        results: List[dict] = []
        self._batch = (ops, results)
        try:
            yield results
        finally:
            # Buffering ends before the last flush: requests that
            # handlers issue while it is delivered go out unbatched.
            self._batch = None
            self._flush_batch(ops, results)

    # -- event queue ---------------------------------------------------------

    def queue_event(self, event: ev.Event) -> None:
        """Deliver *event* as if the server sent it.  On loopback this
        runs the full server-side pipeline (tests inject events this
        way); across a wire it lands directly on the local mirror
        queue."""
        deliver = getattr(self._transport, "deliver_local", None)
        if deliver is not None:
            deliver(event)
        else:
            self._queue.append(event)
            self._dispatch_event(event)

    def _dispatch_event(self, event: ev.Event) -> None:
        """Fire handlers for one accepted event.  Iteration works on a
        snapshot, so a handler may safely add or remove handlers
        (including itself) without skipping or double-running the
        others."""
        for handler in tuple(self.event_handlers):
            handler(event)

    def set_coalescing(self, enabled: bool) -> None:
        """Enable/disable event coalescing for this connection (the
        per-client opt-out; coalescing is on by default)."""
        self._transport.set_coalescing(enabled)

    def pending(self) -> int:
        self._transport.pump()
        return len(self._queue)

    def next_event(self) -> ev.Event:
        self._transport.pump()
        if not self._queue:
            raise QueueEmpty("no pending events")
        event = self._queue.popleft()
        self._transport.note_drained(len(self._queue))
        return event

    def events(self) -> List[ev.Event]:
        """Drain and return all pending events, oldest first."""
        self._transport.pump()
        drained = list(self._queue)
        self._queue.clear()
        self._transport.note_drained(0)
        return drained

    def flush_events(self, of_type=None) -> List[ev.Event]:
        """Drain *all* pending events; return only those matching
        *of_type* (a class or tuple of classes), or everything when
        None.  Non-matching events are discarded — the discards are
        counted in the dropped counter (``stats().get("dropped",
        ...)``), so events a client threw away itself are visible in
        the same place as pipeline losses, identically over loopback
        and TCP.  The retained events keep their relative delivery
        order (oldest first) — callers rely on this to assert on event
        sequences."""
        drained = self.events()
        if of_type is None:
            return drained
        kept: List[ev.Event] = []
        discarded: List[str] = []
        for event in drained:
            if isinstance(event, of_type):
                kept.append(event)
            else:
                discarded.append(type(event).__name__)
        if discarded:
            self._transport.count_discards(discarded)
        return kept

    # -- atoms -----------------------------------------------------------------

    def intern_atom(self, name: str, only_if_exists: bool = False) -> Optional[int]:
        """InternAtom.  A predefined name, or one this connection has
        interned before, is answered from the connection's cache with
        no request, as Xlib does: an atom never changes while its
        server lives.  A cached answer on a dead connection still
        raises :class:`ConnectionClosed`."""
        # Only a str is looked up: a list would not hash, and the
        # server answers any other name with BadValue.
        atom = self._atoms.get(name) if isinstance(name, str) else None
        if atom is None:
            return self._intern(name, only_if_exists)
        self._check_alive()
        return atom

    def _intern(self, name: str, only_if_exists: bool) -> Optional[int]:
        """Ask the server, and cache the atom it answers.  A dead
        connection asks nothing: interning adds a name server-wide."""
        self._check_alive()
        atom = self._request("intern_atom", name, only_if_exists)
        if atom is not None:  # an only_if_exists miss is asked again
            self._atoms[name] = atom
        return atom

    def get_atom_name(self, atom: int) -> str:
        return self._request("get_atom_name", atom)

    # -- screens ------------------------------------------------------------------

    @property
    def screen_count(self) -> int:
        return self._request("screen_count")

    def root_window(self, screen: int = 0) -> int:
        return self._request("root_window", screen)

    def screen_info(self, number: int = 0) -> dict:
        """Screen geometry as plain data (works over any transport)."""
        return self._request("screen_info", number)

    def screen(self, number: int = 0):
        """The live :class:`Screen` object — loopback only; remote
        clients use :meth:`screen_info`."""
        if self.server is None:
            raise RuntimeError(
                "live Screen objects are not available over a wire "
                "transport; use screen_info()"
            )
        return self.server.screens[number]

    # -- window requests -------------------------------------------------------------

    def create_window(
        self,
        parent: int,
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
    ) -> int:
        self._check_alive()
        wid = self._xids.allocate()
        self._request(
            "create_window",
            wid,
            parent,
            x,
            y,
            width,
            height,
            border_width=border_width,
            win_class=win_class,
            override_redirect=override_redirect,
            event_mask=event_mask,
            background=background,
            cursor=cursor,
        )
        return wid

    def destroy_window(self, wid: int) -> None:
        self._check_alive()
        self._request("destroy_window", wid)

    def destroy_subwindows(self, wid: int) -> None:
        self._check_alive()
        self._request("destroy_subwindows", wid)

    def map_window(self, wid: int) -> bool:
        self._check_alive()
        return self._request("map_window", wid)

    def map_subwindows(self, wid: int) -> None:
        self._check_alive()
        self._request("map_subwindows", wid)

    def unmap_window(self, wid: int) -> None:
        self._check_alive()
        self._request("unmap_window", wid)

    def reparent_window(self, wid: int, parent: int, x: int, y: int) -> None:
        self._check_alive()
        self._request("reparent_window", wid, parent, x, y)

    def configure_window(self, wid: int, **kwargs) -> bool:
        """ConfigureWindow with keyword arguments (x, y, width, height,
        border_width, sibling, stack_mode); the value mask is derived
        from which keywords are present; absent ones take the server's
        defaults."""
        self._check_alive()
        mask = 0
        for key in kwargs:
            bit = _CONFIGURE_BITS.get(key)
            if bit is None:
                raise TypeError(f"unknown configure argument {key!r}")
            mask |= bit
        return self._request("configure_window", wid, mask, **kwargs)

    def move_window(self, wid: int, x: int, y: int) -> bool:
        return self.configure_window(wid, x=x, y=y)

    def resize_window(self, wid: int, width: int, height: int) -> bool:
        return self.configure_window(wid, width=width, height=height)

    def move_resize_window(
        self, wid: int, x: int, y: int, width: int, height: int
    ) -> bool:
        return self.configure_window(wid, x=x, y=y, width=width, height=height)

    def raise_window(self, wid: int) -> bool:
        return self.configure_window(wid, stack_mode=ev.ABOVE)

    def lower_window(self, wid: int) -> bool:
        return self.configure_window(wid, stack_mode=ev.BELOW)

    def circulate_window(self, wid: int, direction: int) -> None:
        self._check_alive()
        self._request("circulate_window", wid, direction)

    def select_input(self, wid: int, mask: EventMask) -> None:
        self._check_alive()
        self._request("change_window_attributes", wid, event_mask=mask)

    def change_window_attributes(self, wid: int, **kwargs) -> None:
        self._check_alive()
        self._request("change_window_attributes", wid, **kwargs)

    # -- properties ------------------------------------------------------------------

    def change_property(
        self,
        wid: int,
        atom,
        type_atom,
        fmt: int,
        data,
        mode: int = PROP_MODE_REPLACE,
    ) -> None:
        self._check_alive()
        atom = self._resolve_atom(atom)
        type_atom = self._resolve_atom(type_atom)
        self._request("change_property", wid, atom, type_atom, fmt, data, mode)

    def get_property(self, wid: int, atom) -> Optional[Property]:
        return self._request("get_property", wid, self._resolve_atom(atom))

    def delete_property(self, wid: int, atom) -> None:
        self._check_alive()
        self._request("delete_property", wid, self._resolve_atom(atom))

    def list_properties(self, wid: int) -> List[int]:
        return self._request("list_properties", wid)

    def set_string_property(self, wid: int, atom, value: str, type_atom="STRING") -> None:
        self.change_property(wid, atom, type_atom, 8, value)

    def get_string_property(self, wid: int, atom) -> Optional[str]:
        prop = self.get_property(wid, atom)
        if prop is None or prop.format != 8:
            return None
        return prop.as_string().rstrip("\0")

    def _resolve_atom(self, atom) -> int:
        if isinstance(atom, str):
            return self._atoms.get(atom) or self._intern(atom, False)
        return atom

    # -- send event --------------------------------------------------------------------

    def send_event(
        self,
        destination: int,
        event: ev.Event,
        event_mask: EventMask = EventMask.NoEvent,
        propagate: bool = False,
    ) -> None:
        self._check_alive()
        self._request("send_event", destination, event, event_mask, propagate)

    # -- queries --------------------------------------------------------------------------

    def query_tree(self, wid: int) -> Tuple[int, int, List[int]]:
        return self._request("query_tree", wid)

    def get_geometry(self, wid: int) -> Tuple[int, int, int, int, int]:
        return self._request("get_geometry", wid)

    def get_window_attributes(self, wid: int) -> dict:
        return self._request("get_window_attributes", wid)

    def translate_coordinates(
        self, src: int, dst: int, x: int, y: int
    ) -> Tuple[int, int, int]:
        return self._request("translate_coordinates", src, dst, x, y)

    def query_pointer(self, wid: int) -> dict:
        return self._request("query_pointer", wid)

    def window_exists(self, wid: int) -> bool:
        return self._request("window_exists", wid)

    # -- focus / save set --------------------------------------------------------------------

    def set_input_focus(self, focus: int, revert_to: int = FOCUS_POINTER_ROOT) -> None:
        self._check_alive()
        self._request("set_input_focus", focus, revert_to)

    def get_input_focus(self) -> Tuple[int, int]:
        return self._request("get_input_focus")

    def add_to_save_set(self, wid: int) -> None:
        self._check_alive()
        self._request("change_save_set", wid, SAVE_SET_INSERT)

    def remove_from_save_set(self, wid: int) -> None:
        self._check_alive()
        self._request("change_save_set", wid, SAVE_SET_DELETE)

    # -- grabs -----------------------------------------------------------------------------------

    def grab_pointer(
        self,
        wid: int,
        event_mask: EventMask,
        owner_events: bool = False,
        cursor: Optional[str] = None,
    ) -> int:
        self._check_alive()
        return self._request(
            "grab_pointer", wid, event_mask, owner_events, cursor
        )

    def ungrab_pointer(self) -> None:
        self._check_alive()
        self._request("ungrab_pointer")

    def grab_button(
        self,
        wid: int,
        button: int,
        modifiers: int,
        event_mask: EventMask,
        owner_events: bool = False,
        cursor: Optional[str] = None,
    ) -> None:
        self._check_alive()
        self._request(
            "grab_button", wid, button, modifiers, event_mask,
            owner_events, cursor,
        )

    def ungrab_button(self, wid: int, button: int, modifiers: int) -> None:
        self._check_alive()
        self._request("ungrab_button", wid, button, modifiers)

    def grab_key(
        self, wid: int, keysym: str, modifiers: int, owner_events: bool = False
    ) -> None:
        self._check_alive()
        self._request("grab_key", wid, keysym, modifiers, owner_events)

    def warp_pointer(self, dst: int, x: int, y: int) -> None:
        self._check_alive()
        self._request("warp_pointer", dst, x, y)

    # -- SHAPE ------------------------------------------------------------------------------------

    def shape_window(
        self, wid: int, mask: Optional[Bitmap], x_offset: int = 0, y_offset: int = 0
    ) -> None:
        self._check_alive()
        self._request(
            "shape_set_mask", wid, mask, x_offset=x_offset, y_offset=y_offset
        )

    def window_is_shaped(self, wid: int) -> bool:
        return self._request("window_is_shaped", wid)
