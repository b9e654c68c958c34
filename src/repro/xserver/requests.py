"""The request table: every fact about one request, in one place.

The codec, the dispatcher, the client proxy and the batch executor all
read :data:`REQUESTS`; none keeps a request list of its own.  This
module imports nothing from ``server.py`` or ``wire/``, so all of them
can import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from inspect import Parameter
from typing import Any, Callable, Dict, Optional, Tuple

from . import events as ev
from .errors import BadRequest, BadValue, BadWindow
from .event_mask import EventMask

# -- parameter kinds -----------------------------------------------------
#
# The codec packs the fixed-width kinds of a row into one struct and
# sends VALUE parameters (strings, property data, Optional values,
# lists, bitmaps, events) as tagged values after it.

INT = "int"      #: an integer: ids, coordinates, sizes, modes
ATOM = "atom"    #: an atom id (a value that is none answers BadAtom)
BOOL = "bool"    #: exactly True or False
MASK = "mask"    #: an EventMask (a plain int is accepted)
VALUE = "value"  #: anything else the tagged value codec carries

#: The default of a parameter the caller must pass; the same marker
#: ``inspect.signature`` uses, so a row compares with its method.
REQUIRED = Parameter.empty


@dataclass(frozen=True)
class Param:
    """One request parameter: its name, kind and default."""

    name: str
    kind: str
    default: Any = REQUIRED


@dataclass(frozen=True)
class RequestSpec:
    """One request: its wire opcode (table index + 1), whether the
    server entry point takes the acting client's id first, whether
    ``batch()`` may buffer it, how the server runs it, and its
    parameters."""

    name: str
    opcode: int
    needs_client_id: bool
    batchable: bool
    #: ``handler(server, record, args, kwargs)``, *record* being the
    #: client's ``ServerConnection``; None: the ``XServer`` method.
    handler: Optional[Callable[..., Any]]
    params: Tuple[Param, ...]

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


#: Parameters shared by many rows.
_WID = (("wid", INT),)
_GRAB = (("owner_events", BOOL, False), ("cursor", VALUE, None))

#: The request surface in opcode order.  Append only: never reorder or
#: delete a row.  A request that must no longer run keeps its row with
#: the ``_retired`` handler, so later opcodes keep their numbers.
#: ``note_drained`` is retired: drains are recorded by the loopback
#: drain and the server's own flusher, never on a peer's word.
#:
#: Each row ends with its parameters, ``(name, kind)`` or ``(name,
#: kind, default)``, in the order of the ``XServer`` method it runs
#: (without the client id) or the call its handler serves.
_TABLE: Tuple[Tuple[Any, ...], ...] = (
    # name                       client id  batchable  handler
    ("create_window",            True,      False,     _create_window, (
        ("wid", INT), ("parent_id", INT), ("x", INT), ("y", INT),
        ("width", INT), ("height", INT), ("border_width", INT, 0),
        ("win_class", INT, 1), ("override_redirect", BOOL, False),
        ("event_mask", MASK, EventMask.NoEvent),
        ("background", VALUE, None), ("cursor", VALUE, None))),
    ("destroy_window",           True,      False,     None, _WID),
    ("destroy_subwindows",       True,      False,     None, _WID),
    ("map_window",               True,      False,     None, _WID),
    ("map_subwindows",           True,      False,     None, _WID),
    ("unmap_window",             True,      False,     None, _WID),
    ("reparent_window",          True,      False,     None, (
        ("wid", INT), ("new_parent_id", INT), ("x", INT), ("y", INT))),
    ("configure_window",         True,      True,      None, (
        ("wid", INT), ("value_mask", INT), ("x", INT, 0), ("y", INT, 0),
        ("width", INT, 0), ("height", INT, 0), ("border_width", INT, 0),
        ("sibling", INT, 0), ("stack_mode", INT, 0))),
    ("circulate_window",         True,      False,     None, (
        ("wid", INT), ("direction", INT))),
    ("change_window_attributes", True,      False,     None, (
        ("wid", INT), ("event_mask", VALUE, None),
        ("override_redirect", VALUE, None), ("background", VALUE, None),
        ("cursor", VALUE, None), ("do_not_propagate_mask", VALUE, None),
        ("win_gravity", VALUE, None))),
    # The type stays tagged: the server answers a type that is no atom,
    # of any kind, with BadAtom.
    ("change_property",          True,      True,      None, (
        ("wid", INT), ("atom", ATOM), ("type_atom", VALUE), ("fmt", INT),
        ("data", VALUE), ("mode", INT, 0))),
    ("get_property",             True,      False,     None, (
        ("wid", INT), ("atom", ATOM))),
    ("delete_property",          True,      True,      None, (
        ("wid", INT), ("atom", ATOM))),
    ("list_properties",          True,      False,     None, _WID),
    ("send_event",               True,      False,     None, (
        ("destination", INT), ("event", VALUE),
        ("event_mask", MASK, EventMask.NoEvent),
        ("propagate", BOOL, False))),
    ("query_tree",               False,     False,     None, _WID),
    ("get_geometry",             False,     False,     None, _WID),
    ("get_window_attributes",    False,     False,     None, _WID),
    ("translate_coordinates",    False,     False,     None, (
        ("src_wid", INT), ("dst_wid", INT), ("x", INT), ("y", INT))),
    ("query_pointer",            False,     False,     None, _WID),
    ("window_exists",            False,     False,     _window_exists, _WID),
    ("set_input_focus",          True,      False,     None, (
        ("focus", INT), ("revert_to", INT, 1))),
    ("get_input_focus",          False,     False,     None, ()),
    ("change_save_set",          True,      False,     None, (
        ("wid", INT), ("mode", INT))),
    ("grab_pointer",             True,      False,     None, (
        ("wid", INT), ("event_mask", MASK), *_GRAB)),
    ("ungrab_pointer",           True,      False,     None, ()),
    ("grab_button",              True,      False,     None, (
        ("wid", INT), ("button", INT), ("modifiers", INT),
        ("event_mask", MASK), *_GRAB)),
    ("ungrab_button",            True,      False,     None, (
        ("wid", INT), ("button", INT), ("modifiers", INT))),
    ("grab_key",                 True,      False,     None, (
        ("wid", INT), ("keysym", VALUE), ("modifiers", INT),
        ("owner_events", BOOL, False))),
    ("warp_pointer",             True,      False,     None, (
        ("dst_wid", INT), ("x", INT), ("y", INT))),
    ("shape_set_mask",           True,      False,     None, (
        ("wid", INT), ("mask", VALUE), ("op", INT, 0),
        ("x_offset", INT, 0), ("y_offset", INT, 0))),
    ("window_is_shaped",         False,     False,     None, _WID),
    ("intern_atom",              False,     False,     _intern_atom, (
        ("name", VALUE), ("only_if_exists", BOOL, False))),
    ("get_atom_name",            False,     False,     _get_atom_name, (
        ("atom", ATOM),)),
    ("root_window",              False,     False,     _root_window, (
        ("screen", INT, 0),)),
    ("screen_count",             False,     False,     _screen_count, ()),
    ("screen_info",              False,     False,     _screen_info, (
        ("number", INT, 0),)),
    ("set_coalescing",           False,     False,     _set_coalescing, (
        ("enabled", BOOL),)),
    ("note_drained",             False,     False,     _retired, (
        ("remaining", INT),)),
    ("count_discards",           False,     False,     _count_discards, (
        ("names", VALUE),)),
    ("close",                    False,     False,     _close, ()),
    ("execute_batch",            True,      False,     None, (
        ("ops", VALUE),)),
)

REQUESTS: Dict[str, RequestSpec] = {
    name: RequestSpec(name, index + 1, needs_cid, batchable, handler,
                      tuple(Param(*param) for param in params))
    for index, (name, needs_cid, batchable, handler, params)
    in enumerate(_TABLE)
}
