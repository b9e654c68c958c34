"""A seedable protocol fuzzer: hostile clients for containment tests.

:class:`ProtocolFuzzer` drives N adversarial clients against a live
server (typically with a victim WM attached), issuing the attack mix a
multi-tenant X server must shrug off:

- **window_spam** — create/map storms, including redirect-subject
  top-levels the WM will try to decorate;
- **property_storm** — large properties hammered onto own windows and
  the root (flooding PropertyNotify listeners);
- **grab_abuse** — passive and active grab churn on own windows and
  the root;
- **send_event_flood** — ClientMessage/Expose bursts at the root and
  own windows;
- **malformed** — arguments a correct client never sends (zero sizes,
  out-of-range coordinates, destroying the root, bad formats).

The fuzzer follows the :class:`~repro.xserver.faults.FaultPlan` RNG
discipline: one private ``random.Random(seed)``, every decision drawn
from it in a fixed order, so a (seed, server construction) pair replays
bit-identically — the containment suite asserts identical
``server.stats()`` ``quota_denials``/``shed``/``throttles`` series
across two runs of the same seed.  Expected protocol pushback (:class:`XError`, including
``QuotaExceeded``, and :class:`ConnectionClosed`) is recorded and
swallowed; anything else escapes, which is precisely what the tests
mean by "unhandled exception".
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from . import events as ev
from .client import ClientConnection
from .errors import XError
from .event_mask import EventMask
from .faults import ConnectionClosed
from .input import ANY_MODIFIER
from .properties import PROP_MODE_APPEND, PROP_MODE_REPLACE

#: Attack kinds, drawn uniformly per step.
ATTACKS = (
    "window_spam",
    "property_storm",
    "grab_abuse",
    "send_event_flood",
    "malformed",
)

#: Windows remembered per hostile client (oldest forgotten beyond this).
MAX_TRACKED_WINDOWS = 64


@dataclass
class HostileClient:
    """One attacker: its connection and the windows it still knows."""

    conn: ClientConnection
    windows: List[int] = field(default_factory=list)
    #: Whether the one decorated (redirect-subject) top-level exists.
    decorated: bool = False


class ProtocolFuzzer:
    """Seeded hostile-client driver (see module docstring).

    ``run(requests, pump=...)`` interleaves attack steps with the
    victim's event pump so the WM actually faces the traffic; the
    action log (step, client, attack, outcome) supports replay
    comparison beyond the stats counters.
    """

    def __init__(
        self,
        server,
        seed: int,
        clients: int = 4,
        name: str = "hostile",
    ) -> None:
        self.server = server
        self.seed = seed
        self.rng = random.Random(seed)
        self.clients: List[HostileClient] = [
            HostileClient(ClientConnection(server, f"{name}-{i}"))
            for i in range(clients)
        ]
        self.steps = 0
        #: attack name -> attempts.
        self.actions: Counter = Counter()
        #: error name -> times the server pushed back.
        self.denials: Counter = Counter()
        #: (step, client name, attack, outcome) for replay comparison.
        self.log: List[Tuple[int, str, str, str]] = []

    # -- driving -----------------------------------------------------------

    def run(
        self,
        requests: int = 500,
        pump: Optional[Callable[[], None]] = None,
        pump_every: int = 25,
    ) -> None:
        """Issue *requests* attack steps, calling *pump* (the victim's
        event pump + housekeeping) every *pump_every* steps and once at
        the end."""
        for i in range(requests):
            self.step()
            if pump is not None and (i + 1) % pump_every == 0:
                pump()
        if pump is not None:
            pump()

    def step(self) -> str:
        """One attack step; returns the outcome ("ok" or error name)."""
        state = self.rng.choice(self.clients)
        attack = self.rng.choice(ATTACKS)
        self.steps += 1
        self.actions[attack] += 1
        try:
            getattr(self, "_" + attack)(state)
            outcome = "ok"
        except XError as err:
            self.denials[err.name] += 1
            outcome = err.name
        except ConnectionClosed:
            self.denials["ConnectionClosed"] += 1
            outcome = "ConnectionClosed"
        self.log.append((self.steps, state.conn.name, attack, outcome))
        return outcome

    # -- attack implementations -------------------------------------------
    #
    # Every RNG draw happens before the request that may raise, so a
    # denied attack consumes exactly the draws a successful one would —
    # the draw sequence depends only on (seed, deterministic server).

    def _live_window(self, state: HostileClient) -> int:
        """One of the client's windows still alive, else the root."""
        live = [w for w in state.windows if state.conn.window_exists(w)]
        state.windows[:] = live[-MAX_TRACKED_WINDOWS:]
        if live:
            return self.rng.choice(live)
        return state.conn.root_window()

    def _window_spam(self, state: HostileClient) -> None:
        conn, rng = state.conn, self.rng
        root = conn.root_window()
        burst = rng.randint(2, 5)
        # Pre-draw every parameter for the burst so a mid-burst denial
        # does not change how many draws the step consumed.
        specs = []
        for _ in range(burst):
            parent = root
            if state.windows and rng.random() < 0.7:
                parent = rng.choice(state.windows)
            # Greedy listeners: selecting everything means the client's
            # own floods come back at it, which is exactly the
            # self-inflicted queue growth backpressure exists to bound.
            mask = EventMask.NoEvent
            if rng.random() < 0.8:
                mask = (
                    EventMask.Exposure
                    | EventMask.StructureNotify
                    | EventMask.SubstructureNotify
                    | EventMask.PropertyChange
                )
            specs.append((
                parent,
                rng.randint(-50, 1000), rng.randint(-50, 800),
                rng.randint(1, 300), rng.randint(1, 300),
                rng.random() < 0.7,  # map it?
                mask,
            ))
        for parent, x, y, width, height, map_it, mask in specs:
            # Exactly one decorated (non-override) top-level per
            # client: enough to hand the WM real redirect work, while
            # the rest is override-redirect/child spam the WM ignores —
            # otherwise the WM's own frame fan-out (several windows per
            # managed client) would drag *it* over the shared window
            # quota long before the attackers.
            decorated = not state.decorated and parent == root
            wid = conn.create_window(
                parent, x, y, width, height,
                override_redirect=not decorated, event_mask=mask,
            )
            if decorated:
                state.decorated = True
            state.windows.append(wid)
            del state.windows[:-MAX_TRACKED_WINDOWS]
            if map_it:
                conn.map_window(wid)

    def _property_storm(self, state: HostileClient) -> None:
        conn, rng = state.conn, self.rng
        wid = self._live_window(state)
        atom = f"FUZZ_{rng.randint(0, 5)}"
        fmt = rng.choice((8, 16, 32))
        if fmt == 8:
            data = "x" * rng.randint(1, 512)
            type_atom = "STRING"
        else:
            data = [rng.randint(0, 255) for _ in range(rng.randint(1, 64))]
            type_atom = "CARDINAL"
        mode = PROP_MODE_APPEND if rng.random() < 0.5 else PROP_MODE_REPLACE
        conn.change_property(wid, atom, type_atom, fmt, data, mode)

    def _grab_abuse(self, state: HostileClient) -> None:
        conn, rng = state.conn, self.rng
        wid = self._live_window(state)
        roll = rng.random()
        if roll < 0.4:
            button = rng.randint(1, 3)
            modifiers = rng.choice((0, ANY_MODIFIER))
            conn.grab_button(
                wid, button, modifiers, EventMask.ButtonPress
            )
        elif roll < 0.7:
            keysym = rng.choice(("a", "q", "F1"))
            conn.grab_key(wid, keysym, 0)
        elif roll < 0.9:
            conn.grab_pointer(
                wid, EventMask.PointerMotion | EventMask.ButtonPress
            )
        else:
            conn.ungrab_pointer()

    def _send_event_flood(self, state: HostileClient) -> None:
        conn, rng = state.conn, self.rng
        root = conn.root_window()
        # Mostly at its own windows (self-flooding via the masks
        # window_spam selected); the rest at the root, where the WM's
        # SubstructureNotify selection makes *it* the target.
        dest = root if rng.random() < 0.3 else self._live_window(state)
        as_message = rng.random() < 0.5
        burst = rng.randint(6, 20)
        atom = conn.intern_atom("FUZZ_MSG")
        for i in range(burst):
            if as_message:
                conn.send_event(
                    dest,
                    ev.ClientMessage(
                        window=dest, message_type=atom, data=(i,)
                    ),
                    EventMask.SubstructureNotify,
                )
            else:
                conn.send_event(
                    dest,
                    ev.Expose(window=dest, width=1, height=1),
                    EventMask.Exposure,
                )

    def _malformed(self, state: HostileClient) -> None:
        conn, rng = state.conn, self.rng
        root = conn.root_window()
        choice = rng.randrange(6)
        if choice == 0:
            conn.create_window(root, 0, 0, 0, 0)  # zero size
        elif choice == 1:
            conn.create_window(root, 0, 0, 40000, 10)  # > MAX_WINDOW_SIZE
        elif choice == 2:
            wid = self._live_window(state)
            conn.configure_window(wid, x=99999)  # coordinate overflow
        elif choice == 3:
            conn.destroy_window(root)  # roots are indestructible
        elif choice == 4:
            wid = self._live_window(state)
            conn.reparent_window(wid, wid, 0, 0)  # own descendant
        else:
            conn.change_property(root, "FUZZ_BAD", "STRING", 12, "x")  # bad fmt



# ----------------------------------------------------------------------
# Wire-level corpus: malformed frames
# ----------------------------------------------------------------------

#: Corpus families produced by :func:`malformed_frames`.
FRAME_ATTACKS = (
    "truncated_header",
    "truncated_payload",
    "oversized_length",
    "short_length",
    "bad_version",
    "bad_kind",
    "garbage_opcode",
    "garbage_payload",
    "random_noise",
)


def malformed_frames(rng: Optional[random.Random] = None):
    """A corpus of byte strings no correct peer would ever send, one or
    more per :data:`FRAME_ATTACKS` family: truncated prefixes, length
    fields past the cap or shorter than a header, unknown wire
    versions and frame kinds, garbage opcodes inside well-formed
    frames, undecodable payloads, and plain noise.

    Returns ``(label, data)`` pairs.  The fixed entries are
    deterministic; passing a seeded ``rng`` appends reproducible random
    noise on top.  Feeding any entry to a
    :class:`~repro.xserver.wire.frames.FrameDecoder` or a live wire
    server must produce a protocol error (and at most a dropped
    connection) — never a crash.  The wire tests and the TCP
    integration test both chew through this corpus.
    """
    import struct

    from .wire.codec import encode_request, encode_value
    from .wire.frames import (
        ACK,
        HELLO,
        MAX_FRAME_SIZE,
        REQUEST,
        RESUME,
        WIRE_VERSION,
        encode_frame,
    )

    def raw(length: int, version: int, kind: int, opcode: int,
            payload: bytes = b"") -> bytes:
        return struct.pack(">IBBH", length, version, kind, opcode) + payload

    hello = encode_frame(HELLO, 0, encode_value({"name": "fuzz"}))
    opcode, payload = encode_request("map_window", (1,), {})
    request = encode_frame(REQUEST, opcode, payload)

    corpus = [
        ("truncated_header", hello[:3]),
        ("truncated_header", request[:7]),
        ("truncated_payload", request[:-2]),
        ("oversized_length", struct.pack(">I", MAX_FRAME_SIZE + 1)),
        ("oversized_length", struct.pack(">I", 0xFFFFFFFF) + b"\x01" * 16),
        ("short_length", raw(0, WIRE_VERSION, REQUEST, opcode)),
        ("short_length", raw(3, WIRE_VERSION, REQUEST, opcode)),
        ("bad_version", raw(4 + len(payload), 0, REQUEST, opcode, payload)),
        ("bad_version", raw(4 + len(payload), 99, REQUEST, opcode, payload)),
        ("bad_kind", raw(4 + len(payload), WIRE_VERSION, 0, opcode, payload)),
        ("bad_kind", raw(4 + len(payload), WIRE_VERSION, 77, opcode, payload)),
        ("garbage_opcode",
         raw(4 + len(payload), WIRE_VERSION, REQUEST, 0xBEEF, payload)),
        ("garbage_opcode",
         raw(4 + len(payload), WIRE_VERSION, REQUEST, 0, payload)),
        ("garbage_payload",
         raw(4 + 7, WIRE_VERSION, REQUEST, opcode, b"\xff" * 7)),
        ("garbage_payload",
         raw(4 + 1, WIRE_VERSION, HELLO, 0, b"\xfe")),
        ("random_noise", b"GET / HTTP/1.1\r\n\r\n"),
        ("random_noise", b"\x00" * 64),
        # Resilience frames (wire v2): undecodable RESUME payloads, a
        # RESUME missing its token, and ACKs that are not 8 bytes.
        ("garbage_payload",
         raw(4 + 3, WIRE_VERSION, RESUME, 0, b"\xff\xff\xff")),
        ("garbage_payload",
         encode_frame(RESUME, 0, encode_value({"no": "token"}))),
        ("garbage_payload",
         encode_frame(ACK, 0, b"\x01\x02\x03")),
        ("garbage_payload",
         encode_frame(ACK, 0, b"\x00" * 16)),
    ]
    if rng is not None:
        for _ in range(8):
            corpus.append((
                "random_noise",
                bytes(rng.randrange(256) for _ in range(rng.randrange(1, 48))),
            ))
    return corpus


__all__ = [
    "ATTACKS",
    "FRAME_ATTACKS",
    "HostileClient",
    "ProtocolFuzzer",
    "malformed_frames",
]
