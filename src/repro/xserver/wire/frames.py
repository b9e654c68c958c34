"""Length-prefixed, versioned binary framing.

Every unit that crosses a wire transport is one *frame*:

======  =====  ==========================================================
offset  bytes  field
======  =====  ==========================================================
0       4      length of the remainder (version..payload), big-endian
4       1      wire version (:data:`WIRE_VERSION`)
5       1      frame kind (:data:`FRAME_KINDS`)
6       2      opcode, big-endian (request/event opcode; 0 when unused)
8       n      payload (see :mod:`repro.xserver.wire.codec`)
======  =====  ==========================================================

The framing is deliberately defensive: a hostile or broken peer can
send truncated prefixes, oversized lengths, unknown versions or plain
garbage, and the decoder's only failure mode is
:class:`WireProtocolError` — callers translate that into an error frame
or a dropped connection, never a crash (the malformed-frame corpus in
:mod:`repro.xserver.fuzz` exercises exactly these paths).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

#: Wire format version; bumped on any incompatible framing/codec change.
#: v2: EVENT frames carry a fixed 8-byte sequence prefix and the
#: resilience frame kinds (PING/PONG/RESUME/RESUMED/ACK) exist.
#: v3: REQUEST and EVENT payloads are packed, one layout per request
#: row and per event class.
WIRE_VERSION = 3

#: Frames larger than this are rejected outright — a length prefix is
#: attacker-controlled, and a 4 GiB "frame" must not allocate 4 GiB.
MAX_FRAME_SIZE = 1 << 22  # 4 MiB

#: Bytes before the payload: length(4) + version(1) + kind(1) + opcode(2).
HEADER_SIZE = 8

# -- frame kinds ---------------------------------------------------------

HELLO = 1    #: client -> server handshake (name, options)
WELCOME = 2  #: server -> client handshake reply (client id, XID base)
REQUEST = 3  #: client -> server protocol request
REPLY = 4    #: server -> client request reply
ERROR = 5    #: server -> client error reply (X error / protocol error)
EVENT = 6    #: server -> client asynchronous event (seq-prefixed payload)
PING = 7     #: either direction: liveness probe (8-byte nonce payload)
PONG = 8     #: either direction: probe reply, echoing the nonce
RESUME = 9   #: client -> server: resume a parked session by token
RESUMED = 10  #: server -> client: resume verdict ({"ok": bool, ...})
ACK = 11     #: client -> server: highest event seq seen (trims the ring)

FRAME_KINDS = (
    HELLO, WELCOME, REQUEST, REPLY, ERROR, EVENT,
    PING, PONG, RESUME, RESUMED, ACK,
)

_LENGTH = struct.Struct(">I")
_HEAD = struct.Struct(">BBH")  # version, kind, opcode


class WireError(Exception):
    """Base class for wire-layer failures."""


class WireProtocolError(WireError):
    """The peer sent bytes that are not a valid frame (bad version,
    oversized length, unknown kind/opcode, or undecodable payload).
    The connection that produced it is poisoned; the stream cannot be
    resynchronised and should be torn down after reporting."""


@dataclass
class Frame:
    """One decoded frame."""

    kind: int
    opcode: int
    payload: bytes
    version: int = WIRE_VERSION


def encode_frame(kind: int, opcode: int, payload: bytes = b"") -> bytes:
    """Serialize one frame; raises :class:`WireError` on bad arguments
    (an *outgoing* frame is our own bug, not protocol weather)."""
    if kind not in FRAME_KINDS:
        raise WireError(f"unknown frame kind {kind!r}")
    if not 0 <= opcode <= 0xFFFF:
        raise WireError(f"opcode {opcode!r} out of range")
    body = _HEAD.pack(WIRE_VERSION, kind, opcode) + payload
    if len(body) > MAX_FRAME_SIZE:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_SIZE}")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder: feed arbitrary byte chunks, get
    complete frames back.  Raises :class:`WireProtocolError` the moment
    the stream is provably corrupt; after that every further feed
    raises (the stream has no resynchronisation points)."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def buffered(self) -> int:
        """Bytes received but not yet decoded into a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb *data* and return every frame it completed."""
        if self._poisoned:
            raise WireProtocolError("decoder poisoned by earlier error")
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self):
        buffer = self._buffer
        if len(buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(buffer)
        if length < _HEAD.size:
            self._poison(f"frame length {length} shorter than its header")
        if length > MAX_FRAME_SIZE:
            self._poison(
                f"frame length {length} exceeds cap {MAX_FRAME_SIZE}"
            )
        if len(buffer) < _LENGTH.size + length:
            return None
        version, kind, opcode = _HEAD.unpack_from(buffer, _LENGTH.size)
        if version != WIRE_VERSION:
            self._poison(f"unsupported wire version {version}")
        if kind not in FRAME_KINDS:
            self._poison(f"unknown frame kind {kind}")
        payload = bytes(buffer[_LENGTH.size + _HEAD.size:_LENGTH.size + length])
        del buffer[:_LENGTH.size + length]
        return Frame(kind=kind, opcode=opcode, payload=payload, version=version)

    def _poison(self, message: str) -> None:
        self._poisoned = True
        raise WireProtocolError(message)
