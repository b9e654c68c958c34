"""The request table: every fact about one request, in one place.

The codec, the dispatcher, the client proxy and the batch executor all
read :data:`REQUESTS`; none keeps a request list of its own.  This
module imports nothing from ``server.py`` or ``wire/``, so all of them
can import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from . import events as ev
from .errors import BadRequest, BadValue, BadWindow


@dataclass(frozen=True)
class RequestSpec:
    """One request: its wire opcode (table index + 1), whether the
    server entry point takes the acting client's id first, whether
    ``batch()`` may buffer it, and how the server runs it."""

    name: str
    opcode: int
    needs_client_id: bool
    batchable: bool
    #: ``handler(server, record, args, kwargs)``, *record* being the
    #: client's ``ServerConnection``; None: the ``XServer`` method.
    handler: Optional[Callable[..., Any]]

    def run(self, server, record, args: tuple, kwargs: dict) -> Any:
        """Execute this request on behalf of *record*'s client."""
        if self.handler is not None:
            return self.handler(server, record, args, kwargs)
        method = getattr(server, self.name)
        if self.needs_client_id:
            return method(record.client_id, *args, **kwargs)
        return method(*args, **kwargs)


# -- handlers for requests that are not one XServer method ---------------


def _create_window(server, record, args, kwargs):
    # The server returns its live Window object; the reply is the id
    # the client already chose (never a live object).
    server.create_window(record.client_id, *args, **kwargs)
    return args[0]


def _window_exists(server, record, args, kwargs):
    try:
        server.window(args[0])
    except BadWindow:
        return False
    return True


def _intern_atom(server, record, args, kwargs):
    return server.atoms.intern(*args, **kwargs)


def _get_atom_name(server, record, args, kwargs):
    return server.atoms.name(*args)


def _root_window(server, record, args, kwargs):
    screen = args[0] if args else kwargs.get("screen", 0)
    return server.root_of_screen(screen).id


def _screen_count(server, record, args, kwargs):
    return len(server.screens)


def _screen_info(server, record, args, kwargs):
    number = args[0] if args else kwargs.get("number", 0)
    try:
        screen = server.screens[number]
    except IndexError:
        raise BadValue(number, "no such screen") from None
    return {"number": number, "width": screen.width,
            "height": screen.height, "root": screen.root.id}


def _set_coalescing(server, record, args, kwargs):
    record.set_coalescing(bool(args[0]))


_EVENT_NAMES = frozenset(
    name for name, value in vars(ev).items()
    if isinstance(value, type) and issubclass(value, ev.Event)
)


def _count_discards(server, record, args, kwargs):
    # The names come from the peer and become stats keys: only event
    # class names, or a peer could grow the counters without bound.
    names = list(args[0])
    for name in names:
        if not isinstance(name, str) or name not in _EVENT_NAMES:
            raise BadValue(name, "not an event type")
    record.count_discards(names)


def _close(server, record, args, kwargs):
    server.close_client(record.client_id)


def _retired(server, record, args, kwargs):
    raise BadRequest(None, "retired request")


#: The request surface in opcode order.  Append only: never reorder or
#: delete a row.  A request that must no longer run keeps its row with
#: the ``_retired`` handler, so later opcodes keep their numbers.
#: ``note_drained`` is retired: drains are recorded by the loopback
#: drain and the server's own flusher, never on a peer's word.
_TABLE = (
    # name                       client id  batchable  handler
    ("create_window",            True,      False,     _create_window),
    ("destroy_window",           True,      False,     None),
    ("destroy_subwindows",       True,      False,     None),
    ("map_window",               True,      False,     None),
    ("map_subwindows",           True,      False,     None),
    ("unmap_window",             True,      False,     None),
    ("reparent_window",          True,      False,     None),
    ("configure_window",         True,      True,      None),
    ("circulate_window",         True,      False,     None),
    ("change_window_attributes", True,      False,     None),
    ("change_property",          True,      True,      None),
    ("get_property",             True,      False,     None),
    ("delete_property",          True,      True,      None),
    ("list_properties",          True,      False,     None),
    ("send_event",               True,      False,     None),
    ("query_tree",               False,     False,     None),
    ("get_geometry",             False,     False,     None),
    ("get_window_attributes",    False,     False,     None),
    ("translate_coordinates",    False,     False,     None),
    ("query_pointer",            False,     False,     None),
    ("window_exists",            False,     False,     _window_exists),
    ("set_input_focus",          True,      False,     None),
    ("get_input_focus",          False,     False,     None),
    ("change_save_set",          True,      False,     None),
    ("grab_pointer",             True,      False,     None),
    ("ungrab_pointer",           True,      False,     None),
    ("grab_button",              True,      False,     None),
    ("ungrab_button",            True,      False,     None),
    ("grab_key",                 True,      False,     None),
    ("warp_pointer",             True,      False,     None),
    ("shape_set_mask",           True,      False,     None),
    ("window_is_shaped",         False,     False,     None),
    ("intern_atom",              False,     False,     _intern_atom),
    ("get_atom_name",            False,     False,     _get_atom_name),
    ("root_window",              False,     False,     _root_window),
    ("screen_count",             False,     False,     _screen_count),
    ("screen_info",              False,     False,     _screen_info),
    ("set_coalescing",           False,     False,     _set_coalescing),
    ("note_drained",             False,     False,     _retired),
    ("count_discards",           False,     False,     _count_discards),
    ("close",                    False,     False,     _close),
    ("execute_batch",            True,      False,     None),
)

REQUESTS: Dict[str, RequestSpec] = {
    name: RequestSpec(name, index + 1, needs_cid, batchable, handler)
    for index, (name, needs_cid, batchable, handler) in enumerate(_TABLE)
}

REQUESTS_BY_OPCODE: Dict[int, RequestSpec] = {
    spec.opcode: spec for spec in REQUESTS.values()
}
