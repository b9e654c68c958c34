"""The wire layer: serialize the protocol onto real transports.

Until this package existed the "protocol" between a client and the
simulated server was a synchronous in-process call graph.  The wire
layer splits that into three sub-layers, mirroring how swm itself is
"just a client" (§1 of the paper) talking X protocol over a socket:

- :mod:`repro.xserver.wire.frames` — a versioned, length-prefixed
  binary framing (frame = length, version, kind, opcode, payload) with
  an incremental :class:`FrameDecoder`;
- :mod:`repro.xserver.wire.codec` — serializes every request in the
  :class:`~repro.xserver.client.ClientConnection` surface and every
  :class:`~repro.xserver.events.Event` subclass to/from frames, each
  packed by one layout per request row or event class, with tagged
  values for the rest.  Round-trips are exact (tuple/list, EventMask,
  Bitmap and Property types all survive); an argument of the wrong
  kind fails on the sending side, and unknown opcodes raise
  :class:`WireProtocolError`, never crash;
- :mod:`repro.xserver.wire.transport` /
  :mod:`repro.xserver.wire.tcp` — the :class:`Transport` interface
  with the deterministic zero-latency :class:`LoopbackTransport`
  (default; chaos/fuzz seed replay stays bit-identical) and the real
  asyncio :class:`~repro.xserver.wire.tcp.WireServer` +
  :class:`~repro.xserver.wire.tcp.TcpTransport` pair, where
  BackpressureStage water marks become actual TCP flow control;
- :mod:`repro.xserver.wire.resilience` — connection-lifecycle
  survival: PING/PONG heartbeats, sequence-numbered events with a
  bounded replay ring, session parking + RESUME-by-token after a link
  drop, the one client core :class:`ClientWire` (request retry,
  probing, reconnect under seeded-jitter backoff and resume) that
  both TCP and framed clients run, the deterministic
  :class:`FramedHost`/:class:`FramedTransport` harness and the
  :class:`LinkFaultInjector` that perturbs the byte stream under
  FaultPlan RNG discipline (partition/lag/reorder/truncate/corrupt/
  duplicate).
"""

from .codec import (
    EVENT_OPCODES,
    decode_error,
    decode_event,
    decode_request,
    decode_value,
    encode_error,
    encode_event,
    encode_request,
    encode_value,
)
from .frames import (
    ACK,
    ERROR,
    EVENT,
    FRAME_KINDS,
    HEADER_SIZE,
    HELLO,
    MAX_FRAME_SIZE,
    PING,
    PONG,
    REPLY,
    REQUEST,
    RESUME,
    RESUMED,
    WELCOME,
    WIRE_VERSION,
    Frame,
    FrameDecoder,
    WireError,
    WireProtocolError,
    encode_frame,
)
from .transport import (
    LoopbackTransport,
    ServerConnection,
    Transport,
    dispatch_request,
)
from .resilience import (
    SEQ,
    SEQ_SIZE,
    Backoff,
    ClientSession,
    ClientWire,
    FramedHost,
    FramedTransport,
    LinkDesync,
    LinkFaultInjector,
    ManualClock,
    ParkedSession,
    ReplayRing,
    ResilienceConfig,
    SessionLost,
    SessionTable,
    WireSession,
    WireTimeouts,
)
from .tcp import TcpTransport, WireServer

__all__ = [
    "ACK",
    "Backoff",
    "ClientSession",
    "ClientWire",
    "ERROR",
    "EVENT",
    "FramedHost",
    "FramedTransport",
    "LinkDesync",
    "LinkFaultInjector",
    "ManualClock",
    "PING",
    "PONG",
    "ParkedSession",
    "RESUME",
    "RESUMED",
    "ReplayRing",
    "ResilienceConfig",
    "SEQ",
    "SEQ_SIZE",
    "SessionLost",
    "SessionTable",
    "WireSession",
    "WireTimeouts",
    "EVENT_OPCODES",
    "FRAME_KINDS",
    "Frame",
    "FrameDecoder",
    "HEADER_SIZE",
    "HELLO",
    "LoopbackTransport",
    "MAX_FRAME_SIZE",
    "REPLY",
    "REQUEST",
    "ServerConnection",
    "TcpTransport",
    "Transport",
    "WELCOME",
    "WIRE_VERSION",
    "WireError",
    "WireProtocolError",
    "WireServer",
    "decode_error",
    "decode_event",
    "decode_request",
    "decode_value",
    "dispatch_request",
    "encode_error",
    "encode_event",
    "encode_frame",
    "encode_request",
    "encode_value",
]
