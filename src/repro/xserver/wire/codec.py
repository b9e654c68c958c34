"""Binary codec for requests, events, replies and errors.

Requests and events are packed: each request row of
:mod:`repro.xserver.requests` and each event class has one fixed
binary layout, and one :class:`struct.Struct` packs its int, atom,
bool and :class:`EventMask` fields.  Ints are signed 64-bit, so every
id, serial, timestamp and coordinate the server mints fits.  A request
payload starts with a presence record (how many arguments were
positional, and a bit per parameter passed by keyword), so decoding
returns exactly the ``(name, args, kwargs)`` that was sent.  An event
payload starts with its opcode byte, and keeps the serial it was sent
with.

Everything else (strings, property data, ``Optional`` parameters,
lists, bitmaps, nested events, and every reply and error) is a tagged
value: ``None``, bools, ints (zigzag varints), floats, strings, bytes,
lists, tuples, dicts, :class:`EventMask` flags, :class:`Property`
values, :class:`Bitmap` masks and whole
:class:`~repro.xserver.events.Event` instances (SendEvent carries an
event *inside* a request, in the same layout as an EVENT frame).
Tagged values round-trip exactly, including tuple-vs-list identity and
enum types.  A packed request or event is followed by its tagged tail.

Wrong kinds fail on the side that made them.  A fixed field of a
request that will not pack (a string or list for an int, a non-bool
for a bool, a value out of range) raises its X error in
:func:`encode_request`, before anything is sent.  On the receiving
side, an unknown opcode or a payload whose length, presence record or
tail does not fit its row raises
:class:`~repro.xserver.wire.frames.WireProtocolError`: a hostile peer
gets an error reply or a dropped connection, never a server crash.
``test_codec.py`` pins the bytes.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from dataclasses import fields as dataclass_fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from .. import events as ev
from ..bitmap import Bitmap
from ..errors import BadAtom, BadValue, XError
from ..event_mask import EventMask
from ..faults import ConnectionClosed, WMCrash
from ..properties import Property
from ..quotas import QuotaExceeded
from ..requests import (
    ATOM,
    BOOL,
    INT,
    MASK,
    REQUESTS,
    REQUIRED,
    VALUE,
    RequestSpec,
)
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
    bits = b"".join(bitmap.rows)
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
    rows = tuple(bits[start:start + width]
                 for start in range(0, width * height, width))
    return Bitmap._of_rows(width, height, rows), pos + nbytes


#: Bitmaps above this bit count are rejected on decode (the dimensions
#: are attacker-controlled; the X11 coordinate ceiling bounds honest use).
MAX_BITMAP_BITS = 4096 * 4096


# -- packed fields -------------------------------------------------------
#
# A request row or an event class packs its fixed-width fields with one
# struct: ints (ids, atoms, coordinates, serials, timestamps) as signed
# 64 bits, so every value the server mints fits; bools as one byte;
# event masks as 32 unsigned bits.  Every other field follows as a
# tagged value.

_FIXED_CODES = {INT: "q", ATOM: "q", BOOL: "?", MASK: "I"}

#: The X error a value of the wrong kind raises on the sending side.
_MISFIT_ERRORS = {INT: BadValue, ATOM: BadAtom, BOOL: BadValue,
                  MASK: BadValue}


def _misfit(owner: str, name: str, kind: str, value: Any) -> XError:
    return _MISFIT_ERRORS[kind](value, f"{owner}: {name} is no {kind}")


def _first_misfit(owner: str, names: Sequence[str], kinds: Sequence[str],
                  values: Sequence[Any]) -> XError:
    """The X error for the first of *values* its kind's struct code
    will not pack (called once packing them all has failed)."""
    for name, kind, value in zip(names, kinds, values):
        try:
            struct.pack(">" + _FIXED_CODES[kind], value)
        except struct.error:
            return _misfit(owner, name, kind, value)
    raise AssertionError(f"{owner}: every field packs")


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


class _EventLayout:
    """One event class's wire layout: its opcode byte, then every int
    and bool field packed by one struct, in field order; the fields of
    other types (``KeyPress.keysym``, ``ClientMessage.data``) follow as
    tagged values.  An EVENT frame and an event nested in a value
    (SendEvent) use the same layout."""

    __slots__ = ("cls", "opcode", "fixed", "kinds", "tail", "pack",
                 "unpack_from", "size", "values")

    def __init__(self, cls: Type[ev.Event], opcode: int) -> None:
        # Under ``from __future__ import annotations`` a field's type
        # is its annotation string.
        fields = dataclass_fields(cls)
        kinds = [_EVENT_FIELD_KINDS.get(str(f.type)) for f in fields]
        self.cls = cls
        self.opcode = opcode
        self.fixed = tuple(f.name for f, kind in zip(fields, kinds) if kind)
        self.kinds = tuple(kind for kind in kinds if kind)
        self.tail = tuple(f.name for f, kind in zip(fields, kinds) if not kind)
        codes = "".join(_FIXED_CODES[kind] for kind in self.kinds)
        # The opcode byte is written by pack and skipped by unpack_from.
        self.pack = struct.Struct(">B" + codes).pack
        body = struct.Struct(">x" + codes)
        self.unpack_from = body.unpack_from
        self.size = body.size
        self.values = attrgetter(*self.fixed)


#: Event field annotation -> packed kind; any other field is tagged.
#: Bools pack by truth: a server-made event never fails to encode over
#: a bool a peer stored (``change_window_attributes`` keeps an
#: ``override_redirect`` as given).
_EVENT_FIELD_KINDS = {"int": INT, "bool": BOOL}

_EVENT_LAYOUTS: Dict[Type[ev.Event], _EventLayout] = {
    cls: _EventLayout(cls, opcode) for cls, opcode in EVENT_OPCODES.items()
}

#: Indexed by the opcode byte; None where no class has that opcode.
_EVENT_BY_OPCODE: List[Optional[_EventLayout]] = [None] * 256
for _layout in _EVENT_LAYOUTS.values():
    _EVENT_BY_OPCODE[_layout.opcode] = _layout
del _layout


def _pack_event(event: ev.Event) -> Tuple[_EventLayout, bytes]:
    """*event*'s layout and its packed opcode and fixed fields."""
    layout = _EVENT_LAYOUTS.get(type(event))
    if layout is None:
        raise WireError(
            f"event class {type(event).__name__!r} has no wire opcode"
        )
    values = layout.values(event)
    try:
        return layout, layout.pack(layout.opcode, *values)
    except struct.error:
        raise _first_misfit(layout.cls.__name__, layout.fixed,
                            layout.kinds, values) from None


def _encode_event(out: bytearray, event: ev.Event) -> None:
    layout, packed = _pack_event(event)
    out.append(_T_EVENT)
    out += packed
    for name in layout.tail:
        _encode_into(out, getattr(event, name))


def _decode_event(buf: bytes, pos: int) -> Tuple[ev.Event, int]:
    layout = _EVENT_BY_OPCODE[buf[pos]]
    if layout is None:
        raise WireProtocolError(f"unknown event opcode {buf[pos]}")
    end = pos + layout.size
    if end > len(buf):
        raise WireProtocolError(f"truncated {layout.cls.__name__}")
    # Bypass dataclass construction: __post_init__ mints fresh serials,
    # and a decoded event must keep the serial it was sent with.
    event = object.__new__(layout.cls)
    fields = event.__dict__
    fields.update(zip(layout.fixed, layout.unpack_from(buf, pos)))
    for name in layout.tail:
        fields[name], end = _DECODERS[buf[end]](buf, end + 1)
    return event, end


def encode_event(event: ev.Event) -> Tuple[int, bytes]:
    """(opcode, payload) for an EVENT frame."""
    layout, packed = _pack_event(event)
    if not layout.tail:
        return layout.opcode, packed
    out = bytearray(packed)
    for name in layout.tail:
        _encode_into(out, getattr(event, name))
    return layout.opcode, bytes(out)


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

#: The tail slot of a VALUE parameter the call left out.
_ABSENT = object()


class _RequestLayout:
    """One request row's wire layout.  One struct packs the presence
    record (how many arguments were positional, then a bit per
    parameter passed by keyword) and every fixed-width parameter in
    row order, a parameter the call left out packing as zero.  The
    VALUE parameters the call passed follow as tagged values, in row
    order, so decoding returns exactly the ``(args, kwargs)`` sent."""

    __slots__ = ("name", "opcode", "names", "index", "kinds", "arity",
                 "required", "filler", "fixed", "tagged", "bools",
                 "masks", "pack", "unpack_from", "size")

    def __init__(self, spec: RequestSpec) -> None:
        kinds = tuple(param.kind for param in spec.params)
        required = sum(param.default is REQUIRED for param in spec.params)
        # A Python signature lists its required parameters first, and
        # the presence record has 16 keyword bits.
        assert all(p.default is REQUIRED for p in spec.params[:required])
        assert len(kinds) <= 16, spec.name
        self.name = spec.name
        self.opcode = spec.opcode
        self.names = tuple(param.name for param in spec.params)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.kinds = kinds
        self.arity = len(kinds)
        self.required = (1 << required) - 1
        self.filler = tuple(
            _ABSENT if kind == VALUE else False if kind == BOOL else 0
            for kind in kinds
        )
        self.fixed = tuple(i for i, kind in enumerate(kinds) if kind != VALUE)
        self.tagged = tuple(i for i, kind in enumerate(kinds) if kind == VALUE)
        self.bools = tuple(i for i, kind in enumerate(kinds) if kind == BOOL)
        self.masks = tuple(i for i, kind in enumerate(kinds) if kind == MASK)
        packer = struct.Struct(
            ">BH" + "".join(_FIXED_CODES[kinds[i]] for i in self.fixed)
        )
        self.pack = packer.pack
        self.unpack_from = packer.unpack_from
        self.size = packer.size

    def bind(self, args: tuple, kwargs: dict) -> Tuple[List[Any], int]:
        """The call's value per parameter (the filler where it passed
        none) and its keyword bits.  A call the row cannot take raises
        TypeError, as calling the server method would."""
        count = len(args)
        if count > self.arity:
            raise TypeError(
                f"{self.name}() takes {self.arity} arguments ({count} given)"
            )
        values = [*args, *self.filler[count:]]
        keywords = 0
        for key, value in kwargs.items():
            i = self.index.get(key, -1)
            if i < count:
                raise TypeError(
                    f"{self.name}() got multiple values for {key!r}"
                    if i >= 0 else
                    f"{self.name}() got an unexpected keyword {key!r}"
                )
            values[i] = value
            keywords |= 1 << i
        if ((1 << count) - 1 | keywords) & self.required != self.required:
            raise TypeError(f"{self.name}() missing a required argument")
        return values, keywords

    def misfit(self, values: Sequence[Any]) -> XError:
        """The X error for a bool parameter in *values* that is not a
        bool, else for the first fixed parameter that will not pack."""
        for i in self.bools:
            if type(values[i]) is not bool:
                return _misfit(self.name, self.names[i], BOOL, values[i])
        fixed = self.fixed
        return _first_misfit(self.name, [self.names[i] for i in fixed],
                             [self.kinds[i] for i in fixed],
                             [values[i] for i in fixed])


_REQUEST_LAYOUTS: Dict[str, _RequestLayout] = {
    name: _RequestLayout(spec) for name, spec in REQUESTS.items()
}

_REQUEST_BY_OPCODE: Dict[int, _RequestLayout] = {
    layout.opcode: layout for layout in _REQUEST_LAYOUTS.values()
}


def encode_request(name: str, args: tuple, kwargs: dict) -> Tuple[int, bytes]:
    """(opcode, payload) for a REQUEST frame.  A fixed-width argument
    of the wrong kind raises its X error here, before anything is
    sent."""
    layout = _REQUEST_LAYOUTS.get(name)
    if layout is None:
        raise WireError(f"unknown request {name!r}")
    count = len(args)
    values: Sequence[Any] = args
    keywords = 0
    if kwargs or count != layout.arity:
        values, keywords = layout.bind(args, kwargs)
    for i in layout.bools:
        if type(values[i]) is not bool:
            raise layout.misfit(values)
    tagged = layout.tagged
    fixed = [values[i] for i in layout.fixed] if tagged else values
    try:
        packed = layout.pack(count, keywords, *fixed)
    except struct.error:
        raise layout.misfit(values) from None
    if not tagged:
        return layout.opcode, packed
    out = bytearray(packed)
    for i in tagged:
        value = values[i]
        if value is not _ABSENT:
            _encode_into(out, value)
    return layout.opcode, bytes(out)


@lru_cache(maxsize=1024)
def _bit_indexes(mask: int) -> Tuple[int, ...]:
    """The indexes of *mask*'s set bits, low first."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def decode_request(opcode: int, payload: bytes) -> Tuple[str, tuple, dict]:
    """Decode a REQUEST frame into (name, args, kwargs)."""
    layout = _REQUEST_BY_OPCODE.get(opcode)
    if layout is None:
        raise WireProtocolError(f"unknown request opcode {opcode}")
    name = layout.name
    size = layout.size
    if len(payload) < size:
        raise WireProtocolError(f"truncated {name} request")
    count, keywords, *values = layout.unpack_from(payload)
    present = (1 << count) - 1 | keywords
    if keywords or count != layout.arity:
        if (count > layout.arity or keywords >> layout.arity
                or present & layout.required != layout.required
                or keywords & (1 << count) - 1):
            raise WireProtocolError(f"{name} request binds no call")
    if layout.tagged:
        fixed, values = values, list(layout.filler)
        for i, value in zip(layout.fixed, fixed):
            values[i] = value
        try:
            for i in layout.tagged:
                if present >> i & 1:
                    values[i], size = _decode_from(payload, size)
        except IndexError:
            raise WireProtocolError(f"truncated {name} request") from None
    if size != len(payload):
        raise WireProtocolError(
            f"{len(payload) - size} trailing bytes after {name} request"
        )
    for i in layout.masks:
        values[i] = EventMask(values[i])
    args = tuple(values[:count])
    if not keywords:
        return name, args, {}
    names = layout.names
    return name, args, {
        names[i]: values[i] for i in _bit_indexes(keywords)
    }


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
