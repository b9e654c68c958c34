"""Binary codec for requests, events, replies and errors.

Payloads are built from a small tagged value encoding that covers every
shape the :class:`~repro.xserver.client.ClientConnection` surface
passes or returns: ``None``, bools, ints (zigzag varints), floats,
strings, bytes, lists, tuples, dicts, :class:`EventMask` flags,
:class:`Property` values, :class:`Bitmap` masks and whole
:class:`~repro.xserver.events.Event` instances (SendEvent carries
events *inside* a request).  The encoding is self-describing and
round-trips exactly — a decoded value compares equal to the original,
including tuple-vs-list identity and enum types, which is what the
seeded round-trip suite in ``tests/wire`` asserts.

Requests and events are identified by stable numeric opcodes (the
request table in :mod:`repro.xserver.requests`, :data:`EVENT_OPCODES`).
Decoding an unknown opcode or a malformed payload raises
:class:`~repro.xserver.wire.frames.WireProtocolError` — a hostile peer
gets an error reply or a dropped connection, never a server crash.

Dispatch is table-driven in both directions: the encoder is looked up
by the value's exact type (a subclass takes its nearest registered
base's encoder) and the decoder by the tag byte, with one-byte varints
read and written inline.  The bytes are the format's, unchanged:
``test_codec.py`` pins them.
"""

from __future__ import annotations

import struct
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Sequence, Tuple, Type

from .. import events as ev
from ..bitmap import Bitmap
from ..errors import XError
from ..event_mask import EventMask
from ..faults import ConnectionClosed, WMCrash
from ..properties import Property
from ..quotas import QuotaExceeded
from ..requests import REQUESTS, REQUESTS_BY_OPCODE
from .frames import WireError, WireProtocolError

# -- value tags ----------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_MASK = 0x0A
_T_EVENT = 0x0B
_T_PROPERTY = 0x0C
_T_BITMAP = 0x0D

_DOUBLE = struct.Struct(">d")


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _varint_tail(buf: bytes, pos: int, first: int) -> Tuple[int, int]:
    """Finish a varint whose *first* byte had its continuation bit set;
    *pos* is the index after that byte."""
    result = first & 0x7F
    shift = 7
    while True:
        if shift > 70:
            raise WireProtocolError("varint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    byte = buf[pos]
    if byte & 0x80:
        return _varint_tail(buf, pos + 1, byte)
    return byte, pos + 1


# -- value encoding ------------------------------------------------------
#
# Both directions are table-driven.  _ENCODERS maps a value's exact type
# to the function that writes its tag and body; a type that is not in
# the table (a subclass) takes its nearest registered base's encoder.
# _DECODERS maps every tag byte to the function that reads the body
# after it.  The int and str decoders read a one-byte varint inline.
# Decoders index past the end of a truncated payload; the public decode
# functions turn that IndexError into a WireProtocolError.

Encoder = Callable[[bytearray, Any], None]
Decoder = Callable[[bytes, int], Tuple[Any, int]]


def _encode_into(out: bytearray, value: Any) -> None:
    cls = type(value)
    (_ENCODERS.get(cls) or _inherited_encoder(cls))(out, value)


def _inherited_encoder(cls: type) -> Encoder:
    """The encoder of *cls*'s nearest registered base; a type with none
    is not wire-encodable."""
    for base in cls.__mro__[1:]:
        encoder = _ENCODERS.get(base)
        if encoder is not None:
            return encoder
    raise WireError(f"value of type {cls.__name__!r} is not wire-encodable")


def _encode_none(out: bytearray, value: None) -> None:
    out.append(_T_NONE)


def _encode_bool(out: bytearray, value: bool) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _encode_int(out: bytearray, value: int) -> None:
    out.append(_T_INT)
    _write_varint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _encode_float(out: bytearray, value: float) -> None:
    out.append(_T_FLOAT)
    out += _DOUBLE.pack(value)


def _encode_sized(out: bytearray, tag: int, raw: bytes) -> None:
    out.append(tag)
    _write_varint(out, len(raw))
    out += raw


def _encode_str(out: bytearray, value: str) -> None:
    _encode_sized(out, _T_STR, value.encode("utf-8"))


def _encode_bytes(out: bytearray, value: bytes) -> None:
    _encode_sized(out, _T_BYTES, value)


def _encode_items(out: bytearray, tag: int, items: Sequence[Any]) -> None:
    out.append(tag)
    _write_varint(out, len(items))
    encoders = _ENCODERS
    for item in items:
        cls = type(item)
        (encoders.get(cls) or _inherited_encoder(cls))(out, item)


def _encode_list(out: bytearray, value: list) -> None:
    _encode_items(out, _T_LIST, value)


def _encode_tuple(out: bytearray, value: tuple) -> None:
    _encode_items(out, _T_TUPLE, value)


def _encode_dict(out: bytearray, value: dict) -> None:
    out.append(_T_DICT)
    _write_varint(out, len(value))
    encoders = _ENCODERS
    for key, item in value.items():
        cls = type(key)
        (encoders.get(cls) or _inherited_encoder(cls))(out, key)
        cls = type(item)
        (encoders.get(cls) or _inherited_encoder(cls))(out, item)


def _encode_mask(out: bytearray, value: EventMask) -> None:
    out.append(_T_MASK)
    _write_varint(out, int(value))


def _encode_event(out: bytearray, value: ev.Event) -> None:
    out.append(_T_EVENT)
    _encode_event_into(out, value)


def _encode_property(out: bytearray, value: Property) -> None:
    out.append(_T_PROPERTY)
    _write_varint(out, value.type)
    _write_varint(out, value.format)
    _encode_into(out, value.data)


def _decode_from(buf: bytes, pos: int) -> Tuple[Any, int]:
    return _DECODERS[buf[pos]](buf, pos + 1)


def _decode_none(buf: bytes, pos: int) -> Tuple[None, int]:
    return None, pos


def _decode_true(buf: bytes, pos: int) -> Tuple[bool, int]:
    return True, pos


def _decode_false(buf: bytes, pos: int) -> Tuple[bool, int]:
    return False, pos


def _decode_int(buf: bytes, pos: int) -> Tuple[int, int]:
    raw = buf[pos]
    if raw & 0x80:
        raw, pos = _varint_tail(buf, pos + 1, raw)
    else:
        pos += 1
    return (raw >> 1) ^ -(raw & 1), pos  # un-zigzag


def _decode_float(buf: bytes, pos: int) -> Tuple[float, int]:
    if pos + _DOUBLE.size > len(buf):
        raise WireProtocolError("truncated float")
    return _DOUBLE.unpack_from(buf, pos)[0], pos + _DOUBLE.size


def _decode_str(buf: bytes, pos: int) -> Tuple[str, int]:
    length = buf[pos]
    if length & 0x80:
        length, pos = _varint_tail(buf, pos + 1, length)
    else:
        pos += 1
    end = pos + length
    if end > len(buf):
        raise WireProtocolError("truncated string")
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as err:
        raise WireProtocolError(f"bad utf-8 in string: {err}") from None


def _decode_bytes(buf: bytes, pos: int) -> Tuple[bytes, int]:
    length, pos = _read_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise WireProtocolError("truncated bytes")
    return bytes(buf[pos:end]), end


def _decode_list(buf: bytes, pos: int) -> Tuple[List[Any], int]:
    count, pos = _read_varint(buf, pos)
    decoders = _DECODERS
    items: List[Any] = []
    append = items.append
    for _ in range(count):
        item, pos = decoders[buf[pos]](buf, pos + 1)
        append(item)
    return items, pos


def _decode_tuple(buf: bytes, pos: int) -> Tuple[tuple, int]:
    items, pos = _decode_list(buf, pos)
    return tuple(items), pos


def _decode_dict(buf: bytes, pos: int) -> Tuple[Dict[Any, Any], int]:
    count, pos = _read_varint(buf, pos)
    decoders = _DECODERS
    mapping: Dict[Any, Any] = {}
    for _ in range(count):
        key, pos = decoders[buf[pos]](buf, pos + 1)
        item, pos = decoders[buf[pos]](buf, pos + 1)
        try:
            mapping[key] = item
        except TypeError:
            raise WireProtocolError("unhashable dict key") from None
    return mapping, pos


def _decode_mask(buf: bytes, pos: int) -> Tuple[EventMask, int]:
    raw, pos = _read_varint(buf, pos)
    try:
        return EventMask(raw), pos
    except ValueError as err:
        raise WireProtocolError(f"bad event mask: {err}") from None


def _decode_property(buf: bytes, pos: int) -> Tuple[Property, int]:
    type_atom, pos = _read_varint(buf, pos)
    fmt, pos = _read_varint(buf, pos)
    data, pos = _decode_from(buf, pos)
    try:
        return Property(type_atom, fmt, data), pos
    except Exception as err:
        raise WireProtocolError(f"bad property payload: {err}") from None


def _decode_unknown(buf: bytes, pos: int) -> Tuple[Any, int]:
    raise WireProtocolError(f"unknown value tag {buf[pos - 1]:#04x}")


def _decode_all(decode: Decoder, payload: bytes, what: str) -> Any:
    """Run *decode* over a whole payload: reading past its end means it
    was truncated, and bytes left over are trailing garbage."""
    try:
        value, pos = decode(payload, 0)
    except IndexError:
        raise WireProtocolError(f"truncated {what}") from None
    if pos != len(payload):
        raise WireProtocolError(
            f"{len(payload) - pos} trailing bytes after {what}"
        )
    return value


def encode_value(value: Any) -> bytes:
    """Serialize one value into a standalone payload."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def decode_value(payload: bytes) -> Any:
    """Decode a payload produced by :func:`encode_value`; trailing
    garbage is a protocol error."""
    return _decode_all(_decode_from, payload, "value")


# -- bitmaps -------------------------------------------------------------


#: Bit bytes (0/1) to the digits ``int(..., 2)`` reads, and back.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _encode_bitmap(out: bytearray, bitmap: Bitmap) -> None:
    """Width, height, then the rows' bits back to back, LSB first."""
    out.append(_T_BITMAP)
    _write_varint(out, bitmap.width)
    _write_varint(out, bitmap.height)
    nbytes = (bitmap.width * bitmap.height + 7) // 8
    bits = b"".join(map(bytes, bitmap.rows))
    # int() reads the most significant digit first: reversing the stream
    # makes its bit i the integer's bit i.
    value = int(bits[::-1].translate(_BITS_TO_DIGITS), 2) if bits else 0
    out += value.to_bytes(nbytes, "little")


def _decode_bitmap(buf: bytes, pos: int) -> Tuple[Bitmap, int]:
    width, pos = _read_varint(buf, pos)
    height, pos = _read_varint(buf, pos)
    if width <= 0 or height <= 0 or width * height > MAX_BITMAP_BITS:
        raise WireProtocolError(f"bad bitmap dimensions {width}x{height}")
    nbytes = (width * height + 7) // 8
    if pos + nbytes > len(buf):
        raise WireProtocolError("truncated bitmap")
    value = int.from_bytes(buf[pos:pos + nbytes], "little")
    digits = format(value, f"0{nbytes * 8}b").encode()
    bits = digits[::-1].translate(_DIGITS_TO_BITS)
    rows = [
        list(map(bool, bits[start:start + width]))
        for start in range(0, width * height, width)
    ]
    return Bitmap(width, height, rows), pos + nbytes


#: Bitmaps above this bit count are rejected on decode (the dimensions
#: are attacker-controlled; the X11 coordinate ceiling bounds honest use).
MAX_BITMAP_BITS = 4096 * 4096


# -- events --------------------------------------------------------------

#: Every Event subclass, in stable opcode order.  Opcodes are the index
#: + 1 in this tuple; append only — never reorder — to keep old frames
#: decodable.  ``tests/wire`` asserts this covers every subclass.
EVENT_CLASSES: Tuple[Type[ev.Event], ...] = (
    ev.Event,
    ev.CreateNotify,
    ev.DestroyNotify,
    ev.UnmapNotify,
    ev.MapNotify,
    ev.MapRequest,
    ev.ReparentNotify,
    ev.ConfigureNotify,
    ev.ConfigureRequest,
    ev.GravityNotify,
    ev.CirculateNotify,
    ev.CirculateRequest,
    ev.PropertyNotify,
    ev.ClientMessage,
    ev.Expose,
    ev.VisibilityNotify,
    ev._PointerEvent,
    ev.ButtonPress,
    ev.ButtonRelease,
    ev.MotionNotify,
    ev.KeyPress,
    ev.KeyRelease,
    ev.EnterNotify,
    ev.LeaveNotify,
    ev.FocusIn,
    ev.FocusOut,
    ev.ShapeNotify,
)

EVENT_OPCODES: Dict[Type[ev.Event], int] = {
    cls: index + 1 for index, cls in enumerate(EVENT_CLASSES)
}

_EVENT_FIELDS: Dict[Type[ev.Event], Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclass_fields(cls)) for cls in EVENT_CLASSES
}


def _event_head(cls: Type[ev.Event]) -> bytes:
    """The opcode and field count that start every *cls* payload."""
    out = bytearray()
    _write_varint(out, EVENT_OPCODES[cls])
    _write_varint(out, len(_EVENT_FIELDS[cls]))
    return bytes(out)


#: Per class: its payload head and a getter of its field values, in
#: field order (every event class has more than one field, so the
#: getter returns a tuple).
_EVENT_LAYOUTS: Dict[Type[ev.Event], Tuple[bytes, Callable[[Any], tuple]]] = {
    cls: (_event_head(cls), attrgetter(*_EVENT_FIELDS[cls]))
    for cls in EVENT_CLASSES
}


def _encode_event_into(out: bytearray, event: ev.Event) -> None:
    layout = _EVENT_LAYOUTS.get(type(event))
    if layout is None:
        raise WireError(
            f"event class {type(event).__name__!r} has no wire opcode"
        )
    head, values = layout
    out += head
    encoders = _ENCODERS
    for value in values(event):
        cls = type(value)
        (encoders.get(cls) or _inherited_encoder(cls))(out, value)


def _encode_event(out: bytearray, event: ev.Event) -> None:
    out.append(_T_EVENT)
    _encode_event_into(out, event)


def _decode_event(buf: bytes, pos: int) -> Tuple[ev.Event, int]:
    opcode, pos = _read_varint(buf, pos)
    if not 1 <= opcode <= len(EVENT_CLASSES):
        raise WireProtocolError(f"unknown event opcode {opcode}")
    cls = EVENT_CLASSES[opcode - 1]
    names = _EVENT_FIELDS[cls]
    count, pos = _read_varint(buf, pos)
    if count != len(names):
        raise WireProtocolError(
            f"{cls.__name__} payload has {count} fields, expected {len(names)}"
        )
    # Bypass dataclass construction: __post_init__ mints fresh serials,
    # and a decoded event must keep the serial it was sent with.
    event = object.__new__(cls)
    fields = event.__dict__
    decoders = _DECODERS
    for name in names:
        fields[name], pos = decoders[buf[pos]](buf, pos + 1)
    return event, pos


def encode_event(event: ev.Event) -> Tuple[int, bytes]:
    """(opcode, payload) for an EVENT frame."""
    out = bytearray()
    _encode_event_into(out, event)
    return EVENT_OPCODES[type(event)], bytes(out)


def decode_event(payload: bytes) -> ev.Event:
    """Decode an EVENT frame payload back into an Event instance."""
    return _decode_all(_decode_event, payload, "event")


# -- dispatch tables -----------------------------------------------------

_ENCODERS: Dict[type, Encoder] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    list: _encode_list,
    tuple: _encode_tuple,
    dict: _encode_dict,
    EventMask: _encode_mask,
    Property: _encode_property,
    Bitmap: _encode_bitmap,
    **dict.fromkeys(EVENT_CLASSES, _encode_event),
}

_DECODER_BY_TAG: Dict[int, Decoder] = {
    _T_NONE: _decode_none,
    _T_TRUE: _decode_true,
    _T_FALSE: _decode_false,
    _T_INT: _decode_int,
    _T_FLOAT: _decode_float,
    _T_STR: _decode_str,
    _T_BYTES: _decode_bytes,
    _T_LIST: _decode_list,
    _T_TUPLE: _decode_tuple,
    _T_DICT: _decode_dict,
    _T_MASK: _decode_mask,
    _T_EVENT: _decode_event,
    _T_PROPERTY: _decode_property,
    _T_BITMAP: _decode_bitmap,
}

#: One entry per possible tag byte; an unknown tag finds _decode_unknown.
_DECODERS: List[Decoder] = [
    _DECODER_BY_TAG.get(tag, _decode_unknown) for tag in range(256)
]


# -- requests ------------------------------------------------------------


def encode_request(name: str, args: tuple, kwargs: dict) -> Tuple[int, bytes]:
    """(opcode, payload) for a REQUEST frame."""
    spec = REQUESTS.get(name)
    if spec is None:
        raise WireError(f"unknown request {name!r}")
    out = bytearray()
    _encode_tuple(out, args)
    _encode_dict(out, kwargs)
    return spec.opcode, bytes(out)


def _decode_call(buf: bytes, pos: int) -> Tuple[Tuple[Any, Any], int]:
    args, pos = _decode_from(buf, pos)
    kwargs, pos = _decode_from(buf, pos)
    return (args, kwargs), pos


def decode_request(opcode: int, payload: bytes) -> Tuple[str, tuple, dict]:
    """Decode a REQUEST frame into (name, args, kwargs)."""
    spec = REQUESTS_BY_OPCODE.get(opcode)
    if spec is None:
        raise WireProtocolError(f"unknown request opcode {opcode}")
    args, kwargs = _decode_all(_decode_call, payload, "request")
    if not isinstance(args, tuple) or not isinstance(kwargs, dict):
        raise WireProtocolError("request payload shape mismatch")
    for key in kwargs:
        if not isinstance(key, str):
            raise WireProtocolError("request keyword names must be strings")
    return spec.name, args, kwargs


# -- errors --------------------------------------------------------------


def _error_registry() -> Dict[str, type]:
    registry: Dict[str, type] = {
        "ConnectionClosed": ConnectionClosed,
        "WMCrash": WMCrash,
        "WireProtocolError": WireProtocolError,
        "QuotaExceeded": QuotaExceeded,
    }
    stack = [XError]
    while stack:
        cls = stack.pop()
        registry.setdefault(cls.__name__, cls)
        stack.extend(cls.__subclasses__())
    return registry


#: Built once: every XError subclass is defined in ``errors.py`` or
#: ``quotas.py``, and both are imported above.
_ERRORS = _error_registry()


def encode_error(exc: BaseException) -> bytes:
    """Serialize an exception for an ERROR frame.  X errors keep their
    class, resource and message; ConnectionClosed/WMCrash keep their
    structured arguments; anything else degrades to a protocol error
    carrying the repr (a server must never leak a raw traceback)."""
    if isinstance(exc, XError):
        try:
            resource = encode_value(exc.resource)
        except WireError:
            resource = encode_value(repr(exc.resource))
        body = {
            "name": type(exc).__name__,
            "detail": str(exc),
        }
        out = bytearray()
        _encode_into(out, body)
        out.extend(resource)
        return bytes(out)
    if isinstance(exc, ConnectionClosed):
        return encode_value({"name": "ConnectionClosed", "client_id": exc.client_id})
    if isinstance(exc, WMCrash):
        return encode_value({
            "name": "WMCrash",
            "crash_point": exc.crash_point,
            "client_id": exc.client_id,
        })
    return encode_value({
        "name": "WireProtocolError",
        "detail": f"{type(exc).__name__}: {exc}",
    })


def decode_error(payload: bytes) -> Exception:
    """Rebuild the exception an ERROR frame carries, preserving the
    class (so ``except BadWindow`` works across the wire), the resource
    and the message."""
    try:
        body, pos = _decode_from(payload, 0)
    except IndexError:
        raise WireProtocolError("truncated error") from None
    if not isinstance(body, dict) or "name" not in body:
        raise WireProtocolError("malformed error payload")
    name = body["name"]
    cls = _ERRORS.get(name)
    if cls is None:
        raise WireProtocolError(f"unknown error class {name!r}")
    if issubclass(cls, XError):
        resource: Any = None
        if pos < len(payload):
            try:
                resource, pos = _decode_from(payload, pos)
            except IndexError:
                raise WireProtocolError("truncated error resource") from None
        err = cls.__new__(cls)
        Exception.__init__(err, body.get("detail", name))
        err.resource = resource
        return err
    if cls is ConnectionClosed:
        return ConnectionClosed(body.get("client_id", 0))
    if cls is WMCrash:
        return WMCrash(body.get("crash_point", "?"), body.get("client_id"))
    return WireProtocolError(body.get("detail", name))
