"""Transport interface, server-side connection record and loopback.

A client connection is two objects joined by a :class:`Transport`:

- :class:`ServerConnection` — the server-side record: client id, XID
  range, delivery pipeline and event queue.  This is what
  ``server.clients`` holds, what fault injection kills, what the quota
  oracle inspects.
- :class:`~repro.xserver.client.ClientConnection` — the
  transport-agnostic proxy the application holds.  It issues requests
  and drains events through its transport and never touches the server
  directly.
- :class:`LoopbackTransport` — the default, zero-latency transport:
  requests dispatch synchronously into the server (no encoding — the
  call graph, RNG draw order and ``plan.log`` of a seeded chaos or fuzz
  run are bit-identical to an in-process call), and the proxy's
  event queue *is* the record's queue (one shared deque).
- :class:`~repro.xserver.wire.tcp.TcpTransport` — the same contract
  over a real socket; see :mod:`repro.xserver.wire.tcp`.

:func:`dispatch_request` is the single entry point both transports use
to execute a decoded request against the server, so loopback and TCP
cannot drift apart semantically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from .. import events as ev
from ..errors import XError
from ..faults import ConnectionClosed, WMCrash
from ..pipeline import DROP, EventPipeline
from ..quotas import QuotaExceeded
from ..requests import REQUESTS
from ..server import EventSink, XServer
from ..trace import monotonic_ns
from ..xid import XIDRange
from .frames import WireProtocolError


class ServerConnection(EventSink):
    """The server's half of one client connection.

    Holds everything the server needs to know about a client — id, XID
    range, pipeline, event queue — and nothing about how bytes reach
    the client.  ``_queue`` is the delivery queue the pipeline's
    backpressure stage bounds; on loopback the proxy shares this exact
    deque, on TCP it is the outgoing buffer a flusher drains to the
    socket.
    """

    def __init__(self, server: XServer, name: str = "client",
                 coalesce: bool = True):
        self.server = server
        self.name = name
        self.client_id, self.xids = server.register_client(self)
        self._queue: Deque[ev.Event] = deque()
        self.pipeline = EventPipeline(server, self.client_id, coalesce)
        #: Fired (synchronously, post-pipeline) for every event the
        #: queue accepted.  Loopback wires this to the proxy's handler
        #: dispatch; TCP wires it to the socket flusher.
        self.on_event: Optional[Callable[[ev.Event], None]] = None
        #: Fired when the *server* tears the connection down
        #: (close_client / abandon_client) — lets a transport close its
        #: socket instead of lingering as a zombie.
        self.on_closed: Optional[Callable[[], None]] = None
        #: True while the record sits in a resilience grace window (its
        #: link died but the session may still resume) — windows, XIDs
        #: and quotas stay live; see repro.xserver.wire.resilience.
        self.parked: bool = False

    def __repr__(self) -> str:
        return f"<ServerConnection {self.name!r} id={self.client_id}>"

    # -- EventSink --------------------------------------------------------

    def queue_event(self, event: ev.Event) -> None:
        if self.pipeline.deliver(event, self._queue) == DROP:
            return
        if self.on_event is not None:
            self.on_event(event)

    def connection_closed(self) -> None:
        callback, self.on_closed = self.on_closed, None
        if callback is not None:
            callback()

    # -- record-level operations -----------------------------------------

    def registered(self) -> bool:
        """True while the server still holds this record."""
        return self.server.clients.get(self.client_id) is self

    def set_coalescing(self, enabled: bool) -> None:
        self.pipeline.coalescing = enabled

    def count_discards(self, type_names: Sequence[str]) -> None:
        """Count events the client itself threw away (flush_events) in
        the same dropped counters pipeline losses land in."""
        stats = self.server.stats()
        for type_name in type_names:
            stats.inc("dropped", self.client_id, type_name)


def _error_note(err: BaseException) -> str:
    """Classify a request failure for its trace-span annotation."""
    if isinstance(err, WMCrash):
        return f"crash={err.crash_point}"
    if isinstance(err, QuotaExceeded):
        return "quota=QuotaExceeded"
    if isinstance(err, XError):
        return f"error={type(err).__name__}"
    if isinstance(err, ConnectionClosed):
        return "closed"
    return f"exception={type(err).__name__}"


def dispatch_request(
    server: XServer,
    record: ServerConnection,
    name: str,
    args: tuple,
    kwargs: dict,
) -> Any:
    """Execute one decoded request against *server* on behalf of
    *record*'s client.  Both transports funnel through here — loopback
    calls it synchronously, TCP calls it from the event loop — so the
    request surface behaves identically regardless of the wire, and
    this is where the structured tracer times each request end-to-end
    (on loopback that honestly includes every synchronous WM reaction
    the request triggered).

    Unknown request names raise :class:`WireProtocolError` (a hostile
    peer can name anything); X errors propagate to the caller, which
    reports them as error replies.  A failed request still earns its
    span, annotated with the error — the flight recorder must show the
    request a WMCrash rode in on.
    """
    tracer = server.tracer
    if not tracer.enabled:
        return _execute_request(server, record, name, args, kwargs)
    started = monotonic_ns()
    notes: Tuple[str, ...] = ()
    try:
        return _execute_request(server, record, name, args, kwargs)
    except BaseException as err:
        notes = (_error_note(err),)
        raise
    finally:
        tracer.record_request(
            name, server.timestamp, record.client_id,
            monotonic_ns() - started, notes,
        )


def _execute_request(
    server: XServer,
    record: ServerConnection,
    name: str,
    args: tuple,
    kwargs: dict,
) -> Any:
    spec = REQUESTS.get(name)
    if spec is None:
        raise WireProtocolError(f"unknown request {name!r}")
    return spec.run(server, record, args, kwargs)


class Transport:
    """What a :class:`~repro.xserver.client.ClientConnection` proxy
    needs from its wire.  After :meth:`connect` the transport exposes
    ``client_id``, ``xids`` (the client-side XID range) and ``queue``
    (the proxy's event queue — shared with the server record on
    loopback, a local mirror on TCP)."""

    client_id: int
    xids: XIDRange
    queue: Deque[ev.Event]
    #: The live server for in-process transports, None across a wire.
    server: Optional[XServer] = None
    #: Why the connection died, when the transport knows more than
    #: that it did (a wire session that could not be resumed).
    lost: Optional[ConnectionClosed] = None

    def closed_error(self, client_id: int) -> ConnectionClosed:
        """What a request on this dead transport raises: a new copy of
        ``lost``, or a plain ConnectionClosed."""
        if self.lost is None:
            return ConnectionClosed(client_id)
        return self.lost.renewed()

    def connect(self, proxy, name: str, coalesce: bool) -> None:
        raise NotImplementedError

    def request(self, name: str, args: tuple = (),
                kwargs: Optional[dict] = None) -> Any:
        raise NotImplementedError

    def pump(self) -> None:
        """Pull any transport-buffered events into ``queue``.  No-op on
        loopback, where delivery is synchronous."""

    def is_alive(self) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def note_drained(self, remaining: int) -> None:
        """The proxy consumed events down to *remaining*.  Loopback
        forwards to the quota manager; TCP is a no-op because the
        server-side flusher already noted the drain when it wrote the
        events out — reporting again would double-count."""

    def count_discards(self, type_names: List[str]) -> None:
        raise NotImplementedError

    def set_coalescing(self, enabled: bool) -> None:
        raise NotImplementedError


class LoopbackTransport(Transport):
    """Deterministic in-process transport (the default).

    No encoding, no latency, no reordering: ``request`` dispatches
    synchronously into the server and event delivery lands directly in
    the deque the proxy reads, exactly as the pre-wire
    ``ClientConnection`` behaved.  Seeded chaos/fuzz runs replay
    bit-identically over this transport."""

    def __init__(self, server: XServer):
        self.server = server
        self.record: Optional[ServerConnection] = None

    def connect(self, proxy, name: str, coalesce: bool) -> None:
        record = ServerConnection(self.server, name, coalesce)
        self.record = record
        record.on_event = proxy._dispatch_event
        self.client_id = record.client_id
        self.xids = record.xids
        self.queue = record._queue

    def request(self, name: str, args: tuple = (),
                kwargs: Optional[dict] = None) -> Any:
        return dispatch_request(
            self.server, self.record, name, args, kwargs or {}
        )

    def is_alive(self) -> bool:
        return self.record is not None and self.record.registered()

    def close(self) -> None:
        # A record the server already tore down (fault KILL,
        # abandon_client) must not re-enter close_client: teardown ran
        # once, and the id may since have been recycled server-side.
        if self.is_alive():
            self.server.close_client(self.client_id)

    def note_drained(self, remaining: int) -> None:
        self.server.quotas.note_drained(self.client_id, remaining)

    def count_discards(self, type_names: List[str]) -> None:
        if self.record is not None:
            self.record.count_discards(type_names)

    def set_coalescing(self, enabled: bool) -> None:
        if self.record is not None:
            self.record.set_coalescing(enabled)

    def deliver_local(self, event: ev.Event) -> None:
        """Inject an event as if the server delivered it (test hook and
        proxy.queue_event compatibility path)."""
        if self.record is not None:
            self.record.queue_event(event)
