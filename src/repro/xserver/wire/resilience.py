"""Connection-lifecycle resilience: heartbeats, parking and resume.

The wire layer made clients real network peers; this module makes the
*link* between them survivable.  A TCP client that loses its socket
today loses its windows — exactly the failure a long-lived control-room
session (the VEPP-5 multimonitor deployment in PAPERS.md) cannot
afford.  The paper's WM survives client death via save-sets; here the
server learns to distinguish **link death** from **client death**:

- **Heartbeats** — PING/PONG frames probe liveness in both directions.
  The server reaps a peer that misses :attr:`ResilienceConfig.miss_budget`
  consecutive intervals (parking its session, see below); a client that
  hears nothing for the same budget treats the server as hung and
  reconnects instead of blocking forever.
- **Parking** — when a link drops (or a peer is reaped), its
  :class:`ParkedSession` (record, token, ring, ledger) moves into a
  :class:`SessionTable` for :attr:`ResilienceConfig.park_grace` seconds
  instead of closing: windows, quotas and queued events stay intact,
  and a resume moves the same object to the new link.  Only when the
  grace expires does the ordinary close path run (save-set rescue).
- **Resume** — every EVENT frame carries a monotonically increasing
  8-byte sequence number and is retained in a bounded
  :class:`ReplayRing` until the client ACKs it.  A reconnecting client
  presents its resume token plus its (requests_sent, replies_seen,
  events_seen) ledger; the server replays unacked events and — when the
  link died after (or while) the request ran — resends the cached
  reply, so every request executes exactly once (a server bug is
  answered ``BadImplementation``, never retransmitted).  Requests are
  sequenced *implicitly* by these counters: the REQUEST payload format
  is unchanged and raw-socket peers keep working.
- **Degradation ladder** — resume > replay > session-lost > close.
  Ring overflow, a diverged ledger or an expired grace window never
  hang: the server answers RESUMED ``{ok: False}``, runs the full close
  (save-set rescue), and the client surfaces :class:`SessionLost`.

One client, two links: :class:`ClientWire` is the client half of the
wire, written once — the request retry loop, the unsolicited-reply
desync check, PING probing, event sequencing and ACKs, and
reconnect-and-resume (:meth:`ClientWire._recover`), all driving the
:class:`ClientSession` ledger.  Its two backends only move bytes:
:class:`~repro.xserver.wire.tcp.TcpTransport` over a blocking socket,
:class:`FramedTransport` over the in-process :class:`_FramedLink`.

Determinism: the :class:`FramedHost` / :class:`FramedTransport` pair
runs the *entire* frame protocol — decoder, heartbeats, resume,
replay — synchronously in-process with a manual clock and a no-op
sleeper, and :class:`LinkFaultInjector` perturbs the byte stream under
:class:`~repro.xserver.faults.FaultPlan` RNG discipline (one draw per
matching rule per frame).  A seeded link-chaos run replays
bit-identically.  The asyncio :class:`~repro.xserver.wire.tcp.WireServer`
shares the exact same :class:`WireSession` state machine and the TCP
client the exact same :class:`ClientWire`, so what the deterministic
tests prove holds for real sockets on both ends.
"""

from __future__ import annotations

import random
import struct
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .. import events as ev
from ..errors import BadImplementation, XError
from ..faults import (
    CORRUPT,
    DUPLICATE,
    LAG,
    LINK_KINDS,
    PARTITION,
    TRUNCATE,
    ConnectionClosed,
    FaultPlan,
    WMCrash,
)
from ..quotas import QuotaExceeded
from ..server import XServer
from ..xid import XIDRange
from .codec import (
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
    HELLO,
    PING,
    PONG,
    REPLY,
    REQUEST,
    RESUME,
    RESUMED,
    WELCOME,
    Frame,
    FrameDecoder,
    WireError,
    WireProtocolError,
    encode_frame,
)
from .transport import ServerConnection, Transport, dispatch_request

#: Errors a request may legitimately raise; anything else is a server
#: bug: it lands in the host's ``errors`` list and the peer gets
#: ``BadImplementation``.
_REQUEST_ERRORS = (XError, ConnectionClosed, WMCrash, QuotaExceeded)

#: Fixed-width big-endian sequence number: prefixes every EVENT payload
#: (wire v2), and is the whole payload of ACK and PING frames.
SEQ = struct.Struct(">Q")
SEQ_SIZE = SEQ.size

#: Frame kinds the protocol deduplicates (events by sequence number,
#: heartbeats and acks by idempotence) — the only kinds a DUPLICATE
#: link fault may hit; see FaultRule.matches.
_DEDUPABLE_KINDS = frozenset((EVENT, PING, PONG, ACK))


class SessionLost(ConnectionClosed):
    """The link died and the session could not be resumed — the ring
    overflowed, the grace window expired, the ledger diverged, or the
    retry budget ran out.  Subclasses :class:`ConnectionClosed` so every
    existing disconnect handler already copes; server-side the ordinary
    close path (save-set rescue) has run by the time a client sees
    this.  Graceful degradation, never a hang."""

    def __init__(self, client_id: int, reason: str = "session lost"):
        super().__init__(client_id)
        self.reason = reason
        self.args = (f"session for client {client_id} lost: {reason}",)

    def renewed(self) -> "SessionLost":
        return SessionLost(self.client_id, self.reason)


class LinkDesync(WireError):
    """The client observed an event-sequence gap: bytes were lost on a
    link that is still nominally up.  The stream cannot be trusted;
    transports treat this exactly like a dropped link and resume."""


@dataclass(frozen=True)
class WireTimeouts:
    """Every wall-clock bound the TCP wire layer uses, in one place
    (previously hardcoded ``10``-second literals scattered through
    ``wire/tcp.py``)."""

    connect: float = 10.0    # socket connect / server thread startup
    handshake: float = 10.0  # HELLO -> WELCOME round-trip
    rpc: float = 10.0        # WireServer.call() round-trip
    shutdown: float = 10.0   # server loop-thread join

    @classmethod
    def uniform(cls, timeout: float) -> "WireTimeouts":
        """All four bounds set to *timeout* (the legacy single-knob
        constructor arguments map here)."""
        return cls(connect=timeout, handshake=timeout,
                   rpc=timeout, shutdown=timeout)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning for heartbeats, parking, replay and reconnect backoff.

    Every wire class holds one: ``WireServer``, ``TcpTransport``,
    ``FramedHost``, ``WireSession`` and ``ClientWire``.  They default to
    ``ResilienceConfig()``; the instance is frozen, so one shared
    default is safe."""

    #: Seconds between liveness probes (both directions).
    heartbeat_interval: float = 1.0
    #: Consecutive silent intervals tolerated before a peer is declared
    #: dead (server parks the session; client reconnects).
    miss_budget: int = 3
    #: Seconds a disconnected session stays parked before the ordinary
    #: close path (save-set rescue) runs.
    park_grace: float = 30.0
    #: Unacked events retained for replay; overflow = session lost.
    ring_capacity: int = 1024
    #: Client ACKs every N events (trims the server ring).
    ack_every: int = 64
    #: Reconnect backoff: min(cap, base * 2**attempt) * (1 + jitter*U).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_attempts: int = 6
    jitter: float = 0.25
    #: Seeds the client-side backoff jitter (deterministic replays).
    seed: int = 1337


def backoff(attempt: int, base, cap):
    """Bounded exponential backoff: ``min(cap, base * 2**attempt)``.
    Callers add their own jitter, in their own time unit."""
    return min(cap, base * 2 ** attempt)


class Backoff:
    """Bounded exponential backoff with seeded jitter.  The jitter RNG
    is private to the transport, so reconnect timing never perturbs a
    fault plan's draw sequence."""

    def __init__(self, config: ResilienceConfig, rng: random.Random):
        self.config = config
        self.rng = rng

    def delays(self) -> Iterator[float]:
        cfg = self.config
        for attempt in range(cfg.max_attempts):
            delay = backoff(attempt, cfg.backoff_base, cfg.backoff_cap)
            yield delay * (1.0 + cfg.jitter * self.rng.random())


class ReplayRing:
    """Bounded buffer of sent-but-unacked EVENT frames.

    Entries are ``(seq, opcode, payload)``; ACKs trim from the front,
    capacity evicts from the front while remembering the highest seq it
    threw away — a resume asking for anything at or below that mark is
    unrecoverable (the overflow rung of the degradation ladder)."""

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self._entries: Deque[Tuple[int, int, bytes]] = deque()
        #: Highest sequence number evicted without an ACK; 0 = none.
        self.dropped_through = 0

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, seq: int, opcode: int, payload: bytes) -> None:
        self._entries.append((seq, opcode, payload))
        while len(self._entries) > self.capacity:
            self.dropped_through = self._entries.popleft()[0]

    def ack(self, seq: int) -> None:
        entries = self._entries
        while entries and entries[0][0] <= seq:
            entries.popleft()

    def replay_from(self, events_seen: int) -> Optional[List[Tuple[int, int, bytes]]]:
        """Entries a client that saw *events_seen* still needs, oldest
        first — or ``None`` if the ring already evicted part of that
        range (resume impossible)."""
        if events_seen < self.dropped_through:
            return None
        return [entry for entry in self._entries if entry[0] > events_seen]


class ManualClock:
    """A monotonic clock tests advance by hand (the framed harness's
    default) — park-grace expiry becomes a deterministic input instead
    of wall-clock weather."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@dataclass
class ParkedSession:
    """A session's resumable state, whether a link carries it or it is
    parked: the live :class:`ServerConnection` (windows, quotas, queue),
    resume token, replay ring and request ledger.  Minted at HELLO, it
    moves between links and the :class:`SessionTable` without copying,
    so a request that finishes after its link died still records its
    reply where the resume reads it."""

    token: str
    record: ServerConnection
    ring: ReplayRing
    #: Last event sequence number assigned (0 = none yet).
    last_seq: int = 0
    #: Requests executed on this session (the server's ledger half).
    executed: int = 0
    #: The last reply frame, cached for resend across a resume.
    last_reply: Optional[Tuple[int, int, bytes]] = None
    #: When the grace window of a parked session ends.
    deadline: float = 0.0

    def stamp(self, event: ev.Event) -> Tuple[int, int, bytes]:
        """Encode *event* under the next sequence number and retain it
        in the ring until acked; returns ``(seq, opcode, payload)``."""
        opcode, payload = encode_event(event)
        self.last_seq += 1
        self.ring.append(self.last_seq, opcode, payload)
        return self.last_seq, opcode, payload

    def attach(self, table: "SessionTable") -> None:
        """Start absorbing: events delivered while parked flow straight
        into the ring (already sequence-stamped), and a server-side
        teardown (fault KILL, abandon) silently unparks."""
        record = self.record
        record.parked = True
        record.on_event = self._on_event
        record.on_closed = lambda: table.discard(self.token)
        self._absorb_queue()

    def _on_event(self, event: ev.Event) -> None:
        self._absorb_queue()

    def _absorb_queue(self) -> None:
        queue = self.record._queue
        while queue:
            self.stamp(queue.popleft())


class SessionTable:
    """Mints resume tokens and holds parked sessions until they are
    claimed or expire.  Parking stores the session object its link
    carried; claiming hands that object to the resuming link.  Tokens
    are deterministic counters — peers on this wire are
    trusted-but-buggy (the threat model is flaky links and hostile
    *frames*, not session hijacking)."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self._minted = 0
        self._parked: Dict[str, ParkedSession] = {}

    def mint(self) -> str:
        self._minted += 1
        return f"swm-sess-{self._minted:06d}"

    def park(self, parked: ParkedSession) -> None:
        self._parked[parked.token] = parked

    def claim(self, token: str) -> Optional[ParkedSession]:
        return self._parked.pop(token, None)

    def discard(self, token: str) -> None:
        self._parked.pop(token, None)

    def parked_count(self) -> int:
        return len(self._parked)

    def expire(self, now: Optional[float] = None) -> List[ParkedSession]:
        """Pop and return every session whose grace window has ended;
        the caller owns running the close path on them."""
        if now is None:
            now = self.clock()
        expired = [p for p in self._parked.values() if p.deadline <= now]
        for parked in expired:
            self._parked.pop(parked.token, None)
        return expired

    def sweep(self, server: XServer, transport: str, on_error) -> None:
        """Run the close path on every session whose grace window has
        ended, counting each as ``park_expired`` on *transport*."""
        for parked in self.expire():
            server.stats().inc("wire", transport, "park_expired")
            rescue_expired(server, parked, on_error, transport)


class WireSession:
    """The server side of one link, transport-agnostic.

    Owns the frame decoder, the HELLO/RESUME handshake, request
    execution (via :func:`dispatch_request`), event sequencing and
    heartbeat accounting.  Its ``state`` is the session's one
    :class:`ParkedSession`: minted at HELLO or adopted at RESUME, and
    parked as is when the link dies.  Adapters —
    ``_WireProtocol`` for asyncio sockets, :class:`_FramedLink` for the
    deterministic harness — only move bytes and report link loss, so
    the resilience semantics cannot drift between real and simulated
    networks.

    Adapter contract: deliver inbound bytes to :meth:`feed`; invoke
    ``close_link`` when asked (then, or on any peer disconnect, call
    :meth:`on_link_lost` exactly once); gate writes via *writable* for
    flow control and call :meth:`flush_events` when writability
    returns.
    """

    def __init__(
        self,
        server: XServer,
        sessions: SessionTable,
        send: Callable[[bytes], None],
        close_link: Callable[[], None],
        *,
        resilience: ResilienceConfig = ResilienceConfig(),
        transport: str = "wire",
        writable: Optional[Callable[[], bool]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ):
        self.server = server
        self.sessions = sessions
        self.resilience = resilience
        self.transport_name = transport
        self._send_raw = send
        self._close_link = close_link
        self._writable = writable or (lambda: True)
        self._on_error = on_error or (lambda err: None)
        self._stats = server.stats()
        self._decoder = FrameDecoder()
        #: The session this link carries: minted at HELLO, or claimed by
        #: a resume; None before the handshake and after the link died.
        self.state: Optional[ParkedSession] = None
        #: True once the link is gone (parked, closed or errored):
        #: every later feed/send is a no-op.
        self.finished = False
        self._misses = 0
        self._saw_traffic = False
        self._pings = 0

    @property
    def client_id(self) -> Optional[int]:
        state = self.state
        return state.record.client_id if state is not None else None

    # -- inbound ----------------------------------------------------------

    def feed(self, data: bytes) -> None:
        """Absorb raw link bytes; all protocol handling hangs off here.
        The only escape is :class:`WireProtocolError` → an ERROR frame
        and a dropped link, mirroring ``_WireProtocol.data_received``."""
        if self.finished:
            return
        try:
            frames = self._decoder.feed(data)
        except WireProtocolError as err:
            self._protocol_error(err)
            return
        for frame in frames:
            if self.finished:
                return
            self._stats.inc("wire", self.transport_name, "frames_in")
            try:
                self._handle_frame(frame)
            except WireProtocolError as err:
                self._protocol_error(err)
                return
            except Exception as err:  # pragma: no cover - server bug
                self._on_error(err)
                self._protocol_error(
                    WireProtocolError(f"internal error: {type(err).__name__}")
                )
                return

    def _handle_frame(self, frame: Frame) -> None:
        self._saw_traffic = True
        if frame.kind == PING:
            self._send(PONG, 0, frame.payload)
            return
        if frame.kind == PONG:
            self._stats.inc("wire", self.transport_name, "pongs_in")
            return
        if self.state is None:
            if frame.kind == HELLO:
                self._handle_hello(frame)
                return
            if frame.kind == RESUME:
                self._handle_resume(frame)
                return
            raise WireProtocolError(
                f"expected HELLO or RESUME, got frame kind {frame.kind}"
            )
        if frame.kind == ACK:
            if len(frame.payload) != SEQ_SIZE:
                raise WireProtocolError("malformed ACK payload")
            (seq,) = SEQ.unpack(frame.payload)
            self.state.ring.ack(seq)
            return
        if frame.kind != REQUEST:
            raise WireProtocolError(
                f"unexpected frame kind {frame.kind} from client"
            )
        self._handle_request(frame)

    def _handle_hello(self, frame: Frame) -> None:
        hello = decode_value(frame.payload)
        if not isinstance(hello, dict):
            raise WireProtocolError("malformed HELLO payload")
        record = ServerConnection(
            self.server,
            name=str(hello.get("name", "wire-client")),
            coalesce=bool(hello.get("coalesce", True)),
        )
        cfg = self.resilience
        self.state = ParkedSession(
            self.sessions.mint(), record, ReplayRing(cfg.ring_capacity)
        )
        self._route(record)
        self._send(WELCOME, 0, encode_value({
            "client_id": record.client_id,
            "xid_base": record.xids.base,
            "resume_token": self.state.token,
            "heartbeat_interval": cfg.heartbeat_interval,
            "miss_budget": cfg.miss_budget,
            "ack_every": cfg.ack_every,
        }))

    def _route(self, record: ServerConnection) -> None:
        """Send *record*'s events and its server-side teardown to this
        link."""
        record.parked = False
        record.on_event = self._on_event
        record.on_closed = self._on_server_closed

    def _handle_request(self, frame: Frame) -> None:
        # Held locally: the link may die (and park it) mid-request.
        state = self.state
        assert state is not None
        name, args, kwargs = decode_request(frame.opcode, frame.payload)
        try:
            reply = (REPLY, frame.opcode, encode_value(dispatch_request(
                self.server, state.record, name, args, kwargs
            )))
        except _REQUEST_ERRORS as err:
            reply = (ERROR, frame.opcode, encode_error(err))
        except WireProtocolError:
            raise
        except Exception as err:
            # A server bug (an unencodable result too): answer it like
            # any failed request, so the peer never retransmits it.
            self._on_error(err)
            reply = (ERROR, frame.opcode, encode_error(BadImplementation(
                message=f"internal error: {type(err).__name__}"
            )))
        state.executed += 1
        state.last_reply = reply
        self._send(*reply)
        self.flush_events()

    # -- resume -----------------------------------------------------------

    def _handle_resume(self, frame: Frame) -> None:
        claim = decode_value(frame.payload)
        if not isinstance(claim, dict) or "token" not in claim:
            raise WireProtocolError("malformed RESUME payload")
        try:
            events_seen = int(claim.get("events_seen", 0))
            requests_sent = int(claim.get("requests_sent", 0))
            replies_seen = int(claim.get("replies_seen", 0))
        except (TypeError, ValueError):
            raise WireProtocolError("malformed RESUME counters") from None
        parked = self.sessions.claim(str(claim["token"]))
        if parked is None:
            self._reject_resume("unknown-token", None)
            return
        replay = parked.ring.replay_from(events_seen)
        if replay is None:
            self._reject_resume("event-ring-overflow", parked)
            return
        if parked.executed not in (replies_seen, requests_sent):
            self._reject_resume("request-ledger-diverged", parked)
            return
        record = parked.record
        self.state = parked
        self._route(record)
        self._misses = 0
        self._send(RESUMED, 0, encode_value({
            "ok": True,
            "client_id": record.client_id,
            "xid_base": record.xids.base,
            "executed": parked.executed,
            "replayed": len(replay),
        }))
        for seq, opcode, payload in replay:
            self._send(EVENT, opcode, SEQ.pack(seq) + payload)
        if replay:
            self._stats.inc(
                "wire", self.transport_name, "replayed_events", n=len(replay)
            )
        if (parked.executed == requests_sent
                and requests_sent == replies_seen + 1
                and parked.last_reply is not None):
            # The link died between execute and reply: resend the cached
            # reply so the request is exactly-once, never re-executed.
            self._send(*parked.last_reply)
            self._stats.inc("wire", self.transport_name, "replayed_replies")
        self._stats.inc("wire", self.transport_name, "resumed")
        self.flush_events()

    def _reject_resume(
        self, reason: str, parked: Optional[ParkedSession]
    ) -> None:
        self._stats.inc("wire", self.transport_name, "resume_rejected")
        try:
            self._send(RESUMED, 0, encode_value({"ok": False, "reason": reason}))
        except Exception:  # pragma: no cover - best effort
            pass
        if parked is not None:
            rescue_expired(
                self.server, parked, self._on_error, self.transport_name
            )
        self.finished = True
        self._close_link()

    # -- outbound ---------------------------------------------------------

    def _on_event(self, event: ev.Event) -> None:
        self.flush_events()

    def flush_events(self) -> None:
        """Drain the record's queue to the link while it is writable,
        stamping each event with the next sequence number and retaining
        it in the replay ring until acked.  While unwritable (TCP write
        buffer over its high-water mark) events stay queued server-side
        where BackpressureStage bounds them."""
        state = self.state
        if state is None or self.finished:
            return
        record = state.record
        queue = record._queue
        wrote = False
        while queue and self._writable():
            seq, opcode, payload = state.stamp(queue.popleft())
            self._send(EVENT, opcode, SEQ.pack(seq) + payload)
            wrote = True
        if wrote and record.registered():
            self.server.quotas.note_drained(record.client_id, len(queue))

    def _send(self, kind: int, opcode: int, payload: bytes) -> None:
        if self.finished:
            return
        self._stats.inc("wire", self.transport_name, "frames_out")
        self._send_raw(encode_frame(kind, opcode, payload))

    # -- liveness ---------------------------------------------------------

    def heartbeat_tick(self) -> None:
        """One heartbeat interval elapsed: reset or bump the miss
        counter, reap a silent peer past its budget (the session parks
        via :meth:`on_link_lost`, never an abrupt close), else probe.
        A partial frame is not traffic, so a peer that never finishes one
        is reaped like a silent one."""
        if self.finished:
            return
        if self._saw_traffic:
            self._saw_traffic = False
            self._misses = 0
        else:
            self._misses += 1
            self._stats.inc("wire", self.transport_name, "heartbeat_misses")
            if self._misses > self.resilience.miss_budget:
                self._stats.inc("wire", self.transport_name, "peers_reaped")
                self._close_link()
                return
        self._pings += 1
        self._stats.inc("wire", self.transport_name, "pings_out")
        self._send(PING, 0, SEQ.pack(self._pings))

    # -- teardown ---------------------------------------------------------

    def on_link_lost(self) -> None:
        """The adapter's link died (peer disconnect, reap, protocol
        error).  Park the session object for the grace window; before
        the handshake there is nothing to park."""
        if self.finished:
            return
        self.finished = True
        state, self.state = self.state, None
        if state is None:
            return
        record = state.record
        if not record.registered():
            record.on_event = record.on_closed = None
            return
        state.deadline = self.sessions.clock() + self.resilience.park_grace
        state.attach(self.sessions)
        self.sessions.park(state)
        self._stats.inc("wire", self.transport_name, "parked")

    def _on_server_closed(self) -> None:
        """The server tore this client down (voluntary close, fault
        KILL, abandon): flush, then drop the link for good — there is
        nothing left to park."""
        self.flush_events()
        self.finished = True
        self.state = None
        self._close_link()

    def _protocol_error(self, err: WireProtocolError) -> None:
        self._stats.inc("wire", self.transport_name, "protocol_errors")
        if not self.finished:
            try:
                self._send(ERROR, 0, encode_error(err))
            except Exception:  # pragma: no cover - best effort
                pass
        # Dropping the link (not the session): garbage on the wire may
        # be the link's fault, not the peer's — the adapter's link-loss
        # callback parks and the peer may resume on a clean link; the
        # grace window bounds a truly hostile peer.
        self._close_link()


def rescue_expired(
    server: XServer,
    parked: ParkedSession,
    on_error: Callable[[BaseException], None],
    transport: str,
) -> None:
    """A parked session that can no longer resume (its grace window
    ended, or its resume was refused): the bottom rung of the
    degradation ladder.  Run the ordinary close path (save-set rescue)
    and count the loss."""
    server.stats().inc("wire", transport, "sessions_lost")
    record = parked.record
    record.on_event = None
    record.on_closed = None
    record.parked = False
    if record.registered():
        try:
            server.close_client(record.client_id)
        except Exception as err:  # pragma: no cover - server bug
            on_error(err)


class ClientSession:
    """The client side of the resume ledger, driven by
    :class:`ClientWire`: counts requests and replies (implicit
    request sequencing — the REQUEST wire format is unchanged),
    validates EVENT sequence numbers, and reconciles with the server's
    ``executed`` count after a resume."""

    def __init__(self, name: str, coalesce: bool, ack_every: int = 64):
        self.name = name
        self.coalesce = coalesce
        self.ack_every = ack_every
        self.client_id = -1
        self.xid_base = 0
        self.token: Optional[str] = None
        self.requests_sent = 0
        self.replies_seen = 0
        #: The encoded frame of the request in flight (retransmitted
        #: across a resume when the server never executed it).
        self.last_request: Optional[bytes] = None
        self.events_seen = 0
        self.acked = 0
        self.dup_events = 0

    # -- handshake --------------------------------------------------------

    def hello_payload(self) -> bytes:
        return encode_value({"name": self.name, "coalesce": self.coalesce})

    def handle_welcome(self, payload: bytes) -> None:
        info = decode_value(payload)
        if (not isinstance(info, dict) or "client_id" not in info
                or "resume_token" not in info):
            raise WireProtocolError("malformed WELCOME payload")
        self.client_id = int(info["client_id"])
        self.xid_base = int(info.get("xid_base", 0))
        self.token = str(info["resume_token"])
        if "ack_every" in info:
            self.ack_every = int(info["ack_every"])

    def resume_payload(self) -> bytes:
        return encode_value({
            "token": self.token,
            "events_seen": self.events_seen,
            "requests_sent": self.requests_sent,
            "replies_seen": self.replies_seen,
        })

    def reconcile(self, executed: int) -> bool:
        """Compare the server's ``executed`` count against our ledger
        after a successful resume.  Returns True when the in-flight
        request must be retransmitted (the server never saw it); False
        when no retransmit is needed (nothing in flight, or the server
        executed it and its cached reply is already on the way).  Any
        other shape means the ledgers diverged — session lost."""
        in_flight = self.requests_sent - self.replies_seen
        if executed == self.replies_seen:
            return in_flight > 0
        if executed == self.requests_sent and in_flight == 1:
            return False
        raise SessionLost(
            self.client_id,
            f"request ledger diverged (executed={executed}, "
            f"sent={self.requests_sent}, seen={self.replies_seen})",
        )

    # -- per-frame bookkeeping --------------------------------------------

    def note_request(self, frame: bytes) -> None:
        self.requests_sent += 1
        self.last_request = frame

    def note_reply(self) -> None:
        self.replies_seen += 1
        self.last_request = None

    def accept_event(self, payload: bytes) -> Optional[bytes]:
        """Validate an EVENT payload's sequence prefix.  Returns the
        event body, or ``None`` for a duplicate (replay overlap after a
        resume — silently dropped).  A gap raises :class:`LinkDesync`:
        bytes vanished on a live link, so the stream is poison."""
        if len(payload) < SEQ_SIZE:
            raise WireProtocolError("EVENT payload missing sequence prefix")
        (seq,) = SEQ.unpack_from(payload)
        if seq <= self.events_seen:
            self.dup_events += 1
            return None
        if seq != self.events_seen + 1:
            raise LinkDesync(
                f"event sequence gap: expected {self.events_seen + 1}, "
                f"got {seq}"
            )
        self.events_seen = seq
        return payload[SEQ_SIZE:]

    def ack_due(self) -> Optional[int]:
        """The sequence number to ACK now, or None if not yet due."""
        if self.events_seen - self.acked >= self.ack_every:
            self.acked = self.events_seen
            return self.events_seen
        return None


class _LinkDown(Exception):
    """Internal: the client's link is gone; the session may resume."""


class ClientWire(Transport):
    """The client half of the wire, written once for every link.

    Requests are synchronous round-trips: send REQUEST, read frames
    until its REPLY or ERROR.  EVENT frames met on the way are checked
    against the :class:`ClientSession` ledger (duplicates dropped, a
    sequence gap is a :class:`LinkDesync`), stashed on the local queue
    and dispatched to the proxy's handlers, so client code written
    against loopback behaves the same across a wire.

    While a wait is silent the client probes with PING, up to
    ``miss_budget`` probes; the round-trip also ages frames a lag fault
    holds, so a delayed REPLY shakes loose.  A spent budget, a dropped
    link, undecodable bytes or an unsolicited reply send the session
    through :meth:`_recover`: reconnect under seeded-jitter backoff and
    RESUME by token.  The in-flight request is retransmitted or its
    cached reply collected, and replayed events are deduplicated, so
    the application never observes the flap until the session is truly
    lost (:class:`SessionLost`).

    Backends supply only the link: :meth:`_open_link`,
    :meth:`_send_link`, :meth:`_recv_link` (``b""`` while the link is
    up but silent) and :meth:`_close_link`.  Sending and receiving
    raise :class:`_LinkDown` once the link is gone.
    """

    def __init__(self, resilience: ResilienceConfig,
                 sleep: Callable[[float], None]):
        self.resilience = resilience
        self.queue: Deque[ev.Event] = deque()
        self.client_id = -1
        #: Successful resumes (observable by tests and the soak runner).
        self.reconnects = 0
        #: Backoff delays generated, in order (deterministic per seed).
        self.delays: List[float] = []
        #: PING probes sent so far; each probe carries the next serial.
        self._ping_serial = 0
        self._sleep = sleep
        self._decoder = FrameDecoder()
        self._pending: Deque[Frame] = deque()
        self._dead = False
        self._proxy = None
        self._cs: Optional[ClientSession] = None
        self._rng = random.Random(0)

    # -- link primitives (backends) ---------------------------------------

    def _open_link(self) -> None:
        raise NotImplementedError

    def _send_link(self, data: bytes) -> None:
        raise NotImplementedError

    def _recv_link(self, block: bool) -> bytes:
        """Bytes from the server; ``b""`` when the link is up but has
        nothing (after the backend's read timeout when *block*)."""
        raise NotImplementedError

    def _close_link(self) -> None:
        raise NotImplementedError

    # -- Transport --------------------------------------------------------

    def connect(self, proxy, name: str, coalesce: bool) -> None:
        self._proxy = proxy
        cfg = self.resilience
        cs = self._cs = ClientSession(name, coalesce, ack_every=cfg.ack_every)
        self._rng = random.Random(cfg.seed ^ zlib.crc32(name.encode("utf-8")))
        self._reopen()
        try:
            self._send_link(encode_frame(HELLO, 0, cs.hello_payload()))
            welcome = self._await((WELCOME,))
        except (_LinkDown, LinkDesync):
            raise self._die(ConnectionClosed(self.client_id)) from None
        cs.handle_welcome(welcome.payload)
        self.client_id = cs.client_id
        self.xids = XIDRange(cs.xid_base)

    def request(self, name: str, args: tuple = (),
                kwargs: Optional[dict] = None) -> Any:
        cs = self._cs
        if self._dead or cs is None:
            raise self.closed_error(self.client_id)
        opcode, payload = encode_request(name, args, kwargs or {})
        frame = encode_frame(REQUEST, opcode, payload)
        cs.note_request(frame)
        recoveries = 0
        needs_send = True
        while True:
            try:
                if needs_send:
                    if any(
                        f.kind in (REPLY, ERROR) for f in self._pending
                    ):
                        # A reply nobody awaits means the ledger is
                        # desynced — recover loudly (resume reconciles
                        # or reports divergence) rather than silently
                        # consuming a stale reply as this request's.
                        raise LinkDesync("unsolicited reply buffered")
                    self._send_link(frame)
                    needs_send = False
                return self._finish()
            except (_LinkDown, LinkDesync):
                recoveries += 1
                if recoveries > self.resilience.max_attempts:
                    raise self._die(SessionLost(
                        self.client_id, "recovery limit exceeded"
                    )) from None
                # _recover() retransmits the in-flight request itself
                # when the server never executed it; either way the
                # reply is on its way afterwards — never resend here,
                # or the server would execute the request twice.
                self._recover()
                needs_send = False

    def pump(self) -> None:
        """Drain whatever the server already pushed, without blocking;
        on a dead link, recover eagerly (then keep draining, so events
        replayed by the resume land in the queue before this call
        returns)."""
        while not self._dead and self._cs is not None:
            try:
                data = self._recv_link(False)
                if not data:
                    return
                self._absorb(data)
            except (_LinkDown, LinkDesync):
                try:
                    self._recover()
                except ConnectionClosed:
                    return  # kept in ``lost``; the next request raises it

    def is_alive(self) -> bool:
        if not self._dead:
            self.pump()  # notice a server-side teardown promptly
        return not self._dead

    def close(self) -> None:
        """Voluntary close: fire the close request and read until the
        server drops the link (it tears the client down first, so state
        checks right after close() are race-free) — never enter the
        reconnect dance on a link we asked to die."""
        if not self._dead and self.client_id >= 0:
            opcode, payload = encode_request("close", (), {})
            try:
                self._send_link(encode_frame(REQUEST, opcode, payload))
                while self._recv_link(True):
                    pass
            except _LinkDown:
                pass
        self._die()

    def count_discards(self, type_names: List[str]) -> None:
        if not self._dead:
            self.request("count_discards", (list(type_names),))

    def set_coalescing(self, enabled: bool) -> None:
        self.request("set_coalescing", (bool(enabled),))

    # -- protocol ---------------------------------------------------------

    def _reopen(self) -> None:
        # A client-side desync (event-sequence gap, poisoned decoder)
        # abandons a link that may still be up: drop it so the server
        # parks the session — otherwise RESUME on the new link finds
        # the token still bound to a live session and rejects it.
        self._close_link()
        self._open_link()
        self._decoder = FrameDecoder()
        self._pending.clear()

    def _die(self, err: Optional[Exception] = None) -> Optional[Exception]:
        """The session is over for good: go dead, drop the link, and
        hand back *err* for the caller to raise; it is also kept in
        ``lost``, for every later request to raise."""
        self._dead = True
        if err is not None:
            self.lost = err
        self._close_link()
        return err

    def _finish(self) -> Any:
        """The in-flight request's REPLY value (:meth:`_next_pending`
        raises its ERROR)."""
        frame = self._await((REPLY,))
        self._cs.note_reply()
        return decode_value(frame.payload)

    def _await(self, kinds: Tuple[int, ...]) -> Frame:
        """Read until a frame of *kinds* arrives.  A silent link is
        probed with PING; past the budget the server is hung."""
        budget = self.resilience.miss_budget
        probes = 0
        while True:
            frame = self._next_pending(kinds)
            if frame is not None:
                return frame
            data = self._recv_link(True)
            if data:
                self._absorb(data)
                continue
            if probes >= budget:
                raise _LinkDown()
            probes += 1
            self._ping_serial += 1
            self._send_link(encode_frame(PING, 0, SEQ.pack(self._ping_serial)))

    def _next_pending(self, kinds: Tuple[int, ...]) -> Optional[Frame]:
        """The next buffered frame of *kinds*, or None.  An ERROR is
        raised, answering the request when awaiting a REPLY; a protocol
        error means the link was poisoned, not the request: recover."""
        while self._pending:
            frame = self._pending.popleft()
            if frame.kind in kinds:
                return frame
            if frame.kind != ERROR:
                raise WireProtocolError(
                    f"unexpected frame kind {frame.kind} from server"
                )
            err = decode_error(frame.payload)
            if isinstance(err, WireProtocolError):
                raise _LinkDown()
            if REPLY in kinds:
                self._cs.note_reply()
            if isinstance(err, ConnectionClosed):
                self._dead = True
            raise err
        return None

    def _absorb(self, data: bytes) -> None:
        cs = self._cs
        assert cs is not None
        try:
            frames = self._decoder.feed(data)
        except WireProtocolError as err:
            # Corrupted bytes poisoned our decoder: the stream cannot
            # be re-synchronized in place — resume on a fresh link.
            raise LinkDesync(f"undecodable bytes from server: {err}") \
                from None
        for frame in frames:
            if frame.kind == EVENT:
                body = cs.accept_event(frame.payload)
                if body is None:
                    continue  # duplicate (replay overlap / dup fault)
                event = decode_event(body)
                self.queue.append(event)
                if self._proxy is not None:
                    self._proxy._dispatch_event(event)
                ack = cs.ack_due()
                if ack is not None:
                    self._send_quietly(encode_frame(ACK, 0, SEQ.pack(ack)))
            elif frame.kind == PING:
                self._send_quietly(encode_frame(PONG, 0, frame.payload))
            elif frame.kind != PONG:
                self._pending.append(frame)

    def _send_quietly(self, data: bytes) -> None:
        """Send an ACK or PONG; a dead link is noticed by the next
        read instead."""
        try:
            self._send_link(data)
        except _LinkDown:
            pass

    def _recover(self) -> None:
        """Reconnect under bounded, seeded-jitter exponential backoff
        and resume by token.  Raises :class:`SessionLost` (after the
        server ran save-set rescue) — never hangs, never loops forever."""
        cs = self._cs
        assert cs is not None
        for delay in Backoff(self.resilience, self._rng).delays():
            self.delays.append(delay)
            self._sleep(delay)
            try:
                self._reopen()
                self._send_link(encode_frame(RESUME, 0, cs.resume_payload()))
                frame = self._await((RESUMED,))
            except (_LinkDown, WireError, OSError):
                continue  # this attempt's link died too; back off more
            verdict = decode_value(frame.payload)
            if not isinstance(verdict, dict):
                continue
            if not verdict.get("ok"):
                raise self._die(SessionLost(
                    self.client_id,
                    str(verdict.get("reason", "resume rejected")),
                ))
            try:
                retransmit = cs.reconcile(int(verdict.get("executed", 0)))
            except SessionLost as lost:
                raise self._die(lost) from None
            self.reconnects += 1
            if retransmit and cs.last_request is not None:
                try:
                    self._send_link(cs.last_request)
                except _LinkDown:
                    continue  # lost again already; next attempt resumes
            return
        raise self._die(SessionLost(
            self.client_id, "reconnect attempts exhausted"
        ))


class LinkFaultInjector:
    """Deterministic frame-granular network faults for one direction of
    one link, under :class:`~repro.xserver.faults.FaultPlan` RNG
    discipline (rules consulted in order, exactly one draw per matching
    rule per frame, every injection recorded in ``plan.log``).

    Kinds (see :mod:`repro.xserver.faults`): ``partition`` drops the
    frame and cuts the link (held frames are lost with it);
    ``truncate`` emits half the frame then cuts (a peer dying
    mid-write); ``corrupt`` flips the frame's version byte — the
    decoder poisons deterministically, never a maybe-valid frame;
    ``duplicate`` emits the frame twice (sequence numbers make the
    copy detectable); ``lag`` holds the frame until ``rule.lag``
    later frames have transited (latency); ``reorder`` is lag of one
    (adjacent swap).  Held frames are released by subsequent traffic —
    heartbeat probes keep a quiet link flowing, exactly like real
    keepalives flushing a stalled middlebox."""

    def __init__(
        self,
        plan: FaultPlan,
        direction: str,
        client_id: Optional[Callable[[], Optional[int]]] = None,
        stats=None,
    ):
        self.plan = plan
        self.direction = direction
        self._client_id = client_id or (lambda: None)
        self._stats = stats
        #: Frames held by lag/reorder: [frames_remaining, frame].
        self._held: List[List[Any]] = []

    def transit(self, frame: bytes) -> Tuple[List[bytes], bool]:
        """Pass one frame through the lossy link.  Returns the bytes
        that actually arrive (0, 1 or more frames — possibly including
        previously held ones) and whether the link cut underneath."""
        out: List[bytes] = []
        cut = False
        # Only frames held by EARLIER transits age on this one — a
        # frame held below must wait for subsequent traffic, or a
        # reorder (hold=1) would release within its own transit and
        # never actually swap.
        aging = list(self._held)
        # Duplicate faults only apply to frames the protocol dedups
        # (events carry sequence numbers; heartbeats and acks are
        # idempotent) — the kind byte sits at offset 5 of the header.
        rule = self.plan.pick(
            LINK_KINDS, self.direction, self._client_id(),
            frame[5] in _DEDUPABLE_KINDS,
        )
        if rule is None:
            out.append(frame)
        else:
            kind = rule.kind
            detail = ""
            if kind == PARTITION:
                cut = True
                detail = "link cut, frame and held traffic lost"
                self._held.clear()
            elif kind == TRUNCATE:
                keep = max(1, len(frame) // 2)
                out.append(frame[:keep])
                cut = True
                detail = f"cut after {keep}/{len(frame)} bytes"
            elif kind == CORRUPT:
                garbled = bytearray(frame)
                garbled[4 if len(garbled) > 4 else 0] ^= 0xFF
                out.append(bytes(garbled))
                detail = "version byte flipped"
            elif kind == DUPLICATE:
                out.extend((frame, frame))
                detail = "frame sent twice"
            else:  # LAG / REORDER
                hold = max(1, rule.lag) if kind == LAG else 1
                self._held.append([hold, frame])
                detail = f"held for {hold} frame(s)"
            self.plan.record(
                rule, f"link:{self.direction}", self._client_id(), detail
            )
            if self._stats is not None:
                self._stats.inc("injected", kind)
        if not cut:
            for entry in aging:
                entry[0] -= 1
                if entry[0] <= 0:
                    self._held.remove(entry)
                    out.append(entry[1])
        return out, cut


# ---------------------------------------------------------------------------
# Deterministic framed harness: the full wire protocol, no sockets.
# ---------------------------------------------------------------------------


class FramedHost:
    """In-process host speaking the real frame protocol synchronously.

    Where :class:`LoopbackTransport` bypasses the wire entirely and
    :class:`WireServer` needs threads and sockets, a FramedHost runs
    the byte-level protocol — decoder, handshake, sequence numbers,
    heartbeats, parking, resume — deterministically: a manual clock, no
    sleeps, and every server reaction happening synchronously inside
    the client's own call.  This is what link-chaos tests and the soak
    runner drive, so seeded network-fault runs replay bit-identically.
    """

    def __init__(
        self,
        server: XServer,
        resilience: ResilienceConfig = ResilienceConfig(),
        clock: Optional[ManualClock] = None,
    ):
        self.server = server
        self.resilience = resilience
        self.clock = clock if clock is not None else ManualClock()
        self.sessions = SessionTable(clock=self.clock)
        self.links: List["_FramedLink"] = []
        #: Unhandled exceptions (server bugs): must stay empty.
        self.errors: List[BaseException] = []

    def open_link(self, plan: Optional[FaultPlan] = None) -> "_FramedLink":
        link = _FramedLink(self, plan)
        self.links.append(link)
        return link

    def heartbeat_tick(self) -> None:
        """One heartbeat interval for every live link, plus grace-window
        expiry — tests call this instead of waiting on wall clock."""
        for link in list(self.links):
            link.session.heartbeat_tick()
        self.reap_expired()

    def advance(self, seconds: float) -> None:
        self.clock.advance(seconds)
        self.reap_expired()

    def reap_expired(self) -> None:
        self.sessions.sweep(self.server, "framed", self.errors.append)


class _FramedLink:
    """One synchronous byte pipe between a client and a FramedHost,
    with an optional :class:`LinkFaultInjector` on each direction."""

    def __init__(self, host: FramedHost, plan: Optional[FaultPlan] = None):
        self.host = host
        self.up = True
        self._buffer = bytearray()
        self._stats = host.server.stats()
        self.session = WireSession(
            host.server,
            host.sessions,
            send=self._to_client,
            close_link=self.cut,
            resilience=host.resilience,
            transport="framed",
            on_error=host.errors.append,
        )
        self._c2s = (
            LinkFaultInjector(plan, "c2s", self._peer_id, self._stats)
            if plan is not None else None
        )
        self._s2c = (
            LinkFaultInjector(plan, "s2c", self._peer_id, self._stats)
            if plan is not None else None
        )

    def _peer_id(self) -> Optional[int]:
        return self.session.client_id

    def send(self, data: bytes) -> None:
        """Client -> server bytes (the server reacts synchronously)."""
        if not self.up:
            raise _LinkDown()
        if self._c2s is None:
            chunks, cut = [data], False
        else:
            chunks, cut = self._c2s.transit(data)
        for chunk in chunks:
            if not self.up:
                break
            self._stats.inc("wire", "framed", "bytes_in", n=len(chunk))
            self.session.feed(chunk)
        if cut:
            self.cut()

    def _to_client(self, data: bytes) -> None:
        if not self.up:
            return
        if self._s2c is None:
            chunks, cut = [data], False
        else:
            chunks, cut = self._s2c.transit(data)
        for chunk in chunks:
            self._stats.inc("wire", "framed", "bytes_out", n=len(chunk))
            self._buffer.extend(chunk)
        if cut:
            self.cut()

    def take(self) -> bytes:
        """Drain server->client bytes; raises :class:`_LinkDown` once
        the link is down *and* fully drained (bytes that made it across
        before the cut are still delivered, like a real socket)."""
        data = bytes(self._buffer)
        del self._buffer[:]
        if not data and not self.up:
            raise _LinkDown()
        return data

    def cut(self) -> None:
        """Tear the link (either side); idempotent.  The server session
        parks via its link-loss path."""
        if not self.up:
            return
        self.up = False
        if self in self.host.links:
            self.host.links.remove(self)
        self.session.on_link_lost()


class FramedTransport(ClientWire):
    """The client core over a :class:`FramedHost` link: the same
    protocol as :class:`~repro.xserver.wire.tcp.TcpTransport` (it is
    the same code), but fully deterministic — the link is a synchronous
    in-process pipe, and the backoff sleeper defaults to a no-op (pass
    ``host.advance`` to let backoff run the park-grace clock)."""

    def __init__(
        self,
        host: FramedHost,
        plan: Optional[FaultPlan] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        super().__init__(
            host.resilience, sleep if sleep is not None else (lambda _s: None)
        )
        self.host = host
        self.plan = plan
        self._link: Optional[_FramedLink] = None

    def _open_link(self) -> None:
        self._link = self.host.open_link(self.plan)

    def _send_link(self, data: bytes) -> None:
        if self._link is None:
            raise _LinkDown()
        self._link.send(data)

    def _recv_link(self, block: bool) -> bytes:
        if self._link is None:
            raise _LinkDown()
        return self._link.take()

    def _close_link(self) -> None:
        if self._link is not None:
            self._link.cut()


__all__ = [
    "Backoff",
    "ClientSession",
    "ClientWire",
    "FramedHost",
    "FramedTransport",
    "LinkDesync",
    "LinkFaultInjector",
    "ManualClock",
    "ParkedSession",
    "ReplayRing",
    "ResilienceConfig",
    "SEQ",
    "SEQ_SIZE",
    "SessionLost",
    "SessionTable",
    "WireSession",
    "WireTimeouts",
    "rescue_expired",
]
