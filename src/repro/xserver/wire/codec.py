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
"""

from __future__ import annotations

import struct
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Tuple, Type

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
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise WireProtocolError("truncated varint")
        if shift > 70:
            raise WireProtocolError("varint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# -- value encoding ------------------------------------------------------


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, EventMask):
        out.append(_T_MASK)
        _write_varint(out, int(value))
    elif isinstance(value, bool):  # odd bool subclasses; keep exact
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(_DOUBLE.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, list):
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    elif isinstance(value, ev.Event):
        out.append(_T_EVENT)
        _encode_event_into(out, value)
    elif isinstance(value, Property):
        out.append(_T_PROPERTY)
        _write_varint(out, value.type)
        _write_varint(out, value.format)
        _encode_into(out, value.data)
    elif isinstance(value, Bitmap):
        out.append(_T_BITMAP)
        _encode_bitmap_into(out, value)
    else:
        raise WireError(
            f"value of type {type(value).__name__!r} is not wire-encodable"
        )


def _decode_from(buf: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(buf):
        raise WireProtocolError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        raw, pos = _read_varint(buf, pos)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        if pos + _DOUBLE.size > len(buf):
            raise WireProtocolError("truncated float")
        return _DOUBLE.unpack_from(buf, pos)[0], pos + _DOUBLE.size
    if tag == _T_STR:
        length, pos = _read_varint(buf, pos)
        if pos + length > len(buf):
            raise WireProtocolError("truncated string")
        try:
            return buf[pos:pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as err:
            raise WireProtocolError(f"bad utf-8 in string: {err}") from None
    if tag == _T_BYTES:
        length, pos = _read_varint(buf, pos)
        if pos + length > len(buf):
            raise WireProtocolError("truncated bytes")
        return bytes(buf[pos:pos + length]), pos + length
    if tag in (_T_LIST, _T_TUPLE):
        count, pos = _read_varint(buf, pos)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_from(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _read_varint(buf, pos)
        mapping: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _decode_from(buf, pos)
            item, pos = _decode_from(buf, pos)
            mapping[key] = item
        return mapping, pos
    if tag == _T_MASK:
        raw, pos = _read_varint(buf, pos)
        try:
            return EventMask(raw), pos
        except ValueError as err:
            raise WireProtocolError(f"bad event mask: {err}") from None
    if tag == _T_EVENT:
        return _decode_event_from(buf, pos)
    if tag == _T_PROPERTY:
        type_atom, pos = _read_varint(buf, pos)
        fmt, pos = _read_varint(buf, pos)
        data, pos = _decode_from(buf, pos)
        try:
            return Property(type_atom, fmt, data), pos
        except Exception as err:
            raise WireProtocolError(f"bad property payload: {err}") from None
    if tag == _T_BITMAP:
        return _decode_bitmap_from(buf, pos)
    raise WireProtocolError(f"unknown value tag {tag:#04x}")


def encode_value(value: Any) -> bytes:
    """Serialize one value into a standalone payload."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def decode_value(payload: bytes) -> Any:
    """Decode a payload produced by :func:`encode_value`; trailing
    garbage is a protocol error."""
    value, pos = _decode_from(payload, 0)
    if pos != len(payload):
        raise WireProtocolError(
            f"{len(payload) - pos} trailing bytes after value"
        )
    return value


# -- bitmaps -------------------------------------------------------------


#: Bit bytes (0/1) to the digits ``int(..., 2)`` reads, and back.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _encode_bitmap_into(out: bytearray, bitmap: Bitmap) -> None:
    """Width, height, then the rows' bits back to back, LSB first."""
    _write_varint(out, bitmap.width)
    _write_varint(out, bitmap.height)
    nbytes = (bitmap.width * bitmap.height + 7) // 8
    bits = b"".join(map(bytes, bitmap.rows))
    # int() reads the most significant digit first: reversing the stream
    # makes its bit i the integer's bit i.
    value = int(bits[::-1].translate(_BITS_TO_DIGITS), 2) if bits else 0
    out += value.to_bytes(nbytes, "little")


def _decode_bitmap_from(buf: bytes, pos: int) -> Tuple[Bitmap, int]:
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


def _encode_event_into(out: bytearray, event: ev.Event) -> None:
    cls = type(event)
    opcode = EVENT_OPCODES.get(cls)
    if opcode is None:
        raise WireError(f"event class {cls.__name__!r} has no wire opcode")
    _write_varint(out, opcode)
    names = _EVENT_FIELDS[cls]
    _write_varint(out, len(names))
    for name in names:
        _encode_into(out, getattr(event, name))


def _decode_event_from(buf: bytes, pos: int) -> Tuple[ev.Event, int]:
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
    for name in names:
        value, pos = _decode_from(buf, pos)
        setattr(event, name, value)
    return event, pos


def encode_event(event: ev.Event) -> Tuple[int, bytes]:
    """(opcode, payload) for an EVENT frame."""
    out = bytearray()
    cls = type(event)
    opcode = EVENT_OPCODES.get(cls)
    if opcode is None:
        raise WireError(f"event class {cls.__name__!r} has no wire opcode")
    _encode_event_into(out, event)
    return opcode, bytes(out)


def decode_event(payload: bytes) -> ev.Event:
    """Decode an EVENT frame payload back into an Event instance."""
    event, pos = _decode_event_from(payload, 0)
    if pos != len(payload):
        raise WireProtocolError(
            f"{len(payload) - pos} trailing bytes after event"
        )
    return event


# -- requests ------------------------------------------------------------


def encode_request(name: str, args: tuple, kwargs: dict) -> Tuple[int, bytes]:
    """(opcode, payload) for a REQUEST frame."""
    spec = REQUESTS.get(name)
    if spec is None:
        raise WireError(f"unknown request {name!r}")
    out = bytearray()
    _encode_into(out, tuple(args))
    _encode_into(out, dict(kwargs))
    return spec.opcode, bytes(out)


def decode_request(opcode: int, payload: bytes) -> Tuple[str, tuple, dict]:
    """Decode a REQUEST frame into (name, args, kwargs)."""
    spec = REQUESTS_BY_OPCODE.get(opcode)
    if spec is None:
        raise WireProtocolError(f"unknown request opcode {opcode}")
    args, pos = _decode_from(payload, 0)
    kwargs, pos = _decode_from(payload, pos)
    if pos != len(payload):
        raise WireProtocolError(
            f"{len(payload) - pos} trailing bytes after request"
        )
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
    body, pos = _decode_from(payload, 0)
    if not isinstance(body, dict) or "name" not in body:
        raise WireProtocolError("malformed error payload")
    name = body["name"]
    registry = _error_registry()
    cls = registry.get(name)
    if cls is None:
        raise WireProtocolError(f"unknown error class {name!r}")
    if issubclass(cls, XError):
        resource: Any = None
        if pos < len(payload):
            resource, pos = _decode_from(payload, pos)
        err = cls.__new__(cls)
        Exception.__init__(err, body.get("detail", name))
        err.resource = resource
        return err
    if cls is ConnectionClosed:
        return ConnectionClosed(body.get("client_id", 0))
    if cls is WMCrash:
        return WMCrash(body.get("crash_point", "?"), body.get("client_id"))
    return WireProtocolError(body.get("detail", name))
