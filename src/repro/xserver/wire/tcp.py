"""Real sockets: an asyncio wire server and a blocking TCP transport.

:class:`WireServer` fronts one :class:`~repro.xserver.server.XServer`
with an asyncio TCP acceptor.  Every accepted socket is a thin byte
adapter over the shared
:class:`~repro.xserver.wire.resilience.WireSession` state machine: a
HELLO handshake mints a server-side
:class:`~repro.xserver.wire.transport.ServerConnection`, REQUEST frames
decode into :func:`dispatch_request` calls on the single-threaded event
loop (so the server's synchronous internals — ``_tick`` fault
injection, quotas, caches — run exactly as they do in-process), and
accepted events are encoded back as sequence-stamped EVENT frames.

One inbound read costs one socket write: the frames the session sends
while ``data_received`` runs (a request's events, then its reply) are
held and written together when it returns.  Held bytes that reach
``write_high_water`` are written at once, so ``pause_writing`` can
still fire in the middle of a feed, and closing writes what is held
first, so an ERROR frame precedes the drop.  Writes outside a read —
heartbeat PINGs, the flush after ``resume_writing``, events fired by
another connection's request — go out immediately.

Backpressure becomes real flow control: the session stops flushing
events while asyncio reports the socket write buffer over its
high-water mark (``pause_writing``), the server-side queue then grows,
and the pipeline's ``BackpressureStage`` sheds and throttles exactly as
it would for a slow in-process reader.  Pauses/resumes are visible in
``server.stats()`` under the ``tcp`` wire counters.

One timer on the loop, the heartbeat, runs every connection's
lifecycle (:class:`~repro.xserver.wire.resilience.ResilienceConfig`):
it probes each peer, reaps one that stays silent past its miss budget
into the parking lot, and expires parked sessions whose grace window
ended.  Bytes of an unfinished frame are not traffic, so a peer that
never finishes a frame (half a header, or a request dripped a byte at a
time) is reaped like a silent one, within ``miss_budget + 1`` intervals.

:class:`TcpTransport` is the client half: the shared
:class:`~repro.xserver.wire.resilience.ClientWire` core (synchronous
Xlib-style round-trips, PING probing, reconnect under seeded-jitter
backoff and resume by token) over a plain blocking socket, pluggable
into :class:`~repro.xserver.client.ClientConnection` via
``transport=``.  The socket is only a link backend: open, send, receive
(a read timeout means "silent", EOF or a reset means "down") and close.

Malformed frames — truncated, oversized, bad version, garbage opcodes
(the corpus in :mod:`repro.xserver.fuzz`) — produce an ERROR frame
and/or a dropped connection, never an unhandled exception.
"""

from __future__ import annotations

import asyncio
import select
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, List, Optional, Tuple

from ..server import XServer
from .frames import WireError
from .resilience import (
    ClientWire,
    ResilienceConfig,
    SessionTable,
    WireSession,
    WireTimeouts,
    _LinkDown,
)


class _WireProtocol(asyncio.Protocol):
    """One accepted client socket: bytes in/out plus flow control; all
    protocol state lives in the shared :class:`WireSession`."""

    def __init__(self, wire: "WireServer"):
        self.wire = wire
        self._stats = wire.server.stats()
        self.transport: Optional[asyncio.Transport] = None
        self._paused = False
        self._closing = False
        #: Frames sent while ``data_received`` runs, written together
        #: when it returns (or once they reach ``write_high_water``).
        self._held: List[bytes] = []
        self._held_bytes = 0
        self._corked = False
        self.session = WireSession(
            wire.server,
            wire.sessions,
            send=self._write,
            close_link=self._close_transport,
            resilience=wire.resilience,
            transport="tcp",
            writable=self._writable,
            on_error=wire.errors.append,
        )

    # -- asyncio callbacks ------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None and self.wire.sndbuf:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, self.wire.sndbuf
            )
        transport.set_write_buffer_limits(high=self.wire.write_high_water)
        self.wire._protocols.add(self)

    def connection_lost(self, exc) -> None:
        self.wire._protocols.discard(self)
        self._closing = True
        self.session.on_link_lost()  # parks the session

    def pause_writing(self) -> None:
        self._paused = True
        self._stats.inc("wire", "tcp", "pauses")

    def resume_writing(self) -> None:
        self._paused = False
        self._stats.inc("wire", "tcp", "resumes")
        self.session.flush_events()

    def data_received(self, data: bytes) -> None:
        self._stats.inc("wire", "tcp", "bytes_in", n=len(data))
        self._corked = True
        try:
            self.session.feed(data)
        finally:
            self._corked = False
            self._write_held()

    # -- WireSession adapter ----------------------------------------------

    def _writable(self) -> bool:
        return not self._paused and not self._closing

    def _write(self, data: bytes) -> None:
        if self._closing or self.transport is None:
            return
        self._held.append(data)
        self._held_bytes += len(data)
        # Early at the high-water mark, so asyncio can still pause a
        # feed that floods events.
        if not self._corked or self._held_bytes >= self.wire.write_high_water:
            self._write_held()

    def _write_held(self) -> None:
        if not self._held or self.transport is None:
            return
        data = b"".join(self._held)
        self._held.clear()
        self._held_bytes = 0
        self.transport.write(data)
        self._stats.inc("wire", "tcp", "bytes_out", n=len(data))

    def _close_transport(self) -> None:
        self._write_held()  # an ERROR frame still goes out before the drop
        self._closing = True
        if self.transport is not None:
            self.transport.close()


class WireServer:
    """Asyncio TCP front for an :class:`XServer`.

    Runs its event loop on a dedicated thread (``start()`` /
    ``stop()``, or use it as a context manager), so tests and the
    ``python -m repro serve`` CLI can drive it alongside blocking
    clients.  All XServer access happens on the loop thread; use
    :meth:`call` to run server inspections there from other threads.
    Wall-clock bounds come from *timeouts* (a
    :class:`~repro.xserver.wire.resilience.WireTimeouts`); heartbeats,
    session parking and resume are tuned by *resilience* (a
    :class:`~repro.xserver.wire.resilience.ResilienceConfig`).
    """

    def __init__(
        self,
        server: XServer,
        host: str = "127.0.0.1",
        port: int = 0,
        write_high_water: int = 64 * 1024,
        sndbuf: Optional[int] = None,
        timeouts: Optional[WireTimeouts] = None,
        resilience: ResilienceConfig = ResilienceConfig(),
    ):
        self.server = server
        self.host = host
        self.port = port
        self.write_high_water = write_high_water
        self.sndbuf = sndbuf
        self.timeouts = timeouts if timeouts is not None else WireTimeouts()
        self.resilience = resilience
        #: Parked sessions awaiting resume.
        self.sessions = SessionTable(clock=time.monotonic)
        #: Unhandled exceptions (server bugs): must stay empty.
        self.errors: List[BaseException] = []
        self._protocols: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._hb_handle: Optional[asyncio.TimerHandle] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="wire-server", daemon=True
        )
        self._thread.start()
        started = self._ready.wait(timeout=self.timeouts.connect)
        if self._startup_error is not None:
            raise self._startup_error
        if not started:
            raise WireError(
                f"wire server failed to start within {self.timeouts.connect}s"
            )
        return self.host, self.port

    def stop(self) -> None:
        loop = self._loop
        if loop is None:
            return
        def shutdown() -> None:
            if self._hb_handle is not None:
                self._hb_handle.cancel()
                self._hb_handle = None
            for proto in list(self._protocols):
                if proto.transport is not None:
                    proto.transport.close()
            if self._server is not None:
                self._server.close()
            loop.stop()
        loop.call_soon_threadsafe(shutdown)
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.timeouts.shutdown)
            if thread.is_alive():
                raise WireError(
                    "wire server loop thread failed to stop within "
                    f"{self.timeouts.shutdown}s"
                )
        self._loop = None

    def __enter__(self) -> "WireServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def call(self, fn, *args, **kwargs) -> Any:
        """Run ``fn(*args, **kwargs)`` on the loop thread and return its
        result — the safe way to poke the XServer while the wire is
        live."""
        loop = self._loop
        if loop is None or not loop.is_running():
            return fn(*args, **kwargs)
        future: Future = Future()
        def runner() -> None:
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as err:
                future.set_exception(err)
        loop.call_soon_threadsafe(runner)
        try:
            return future.result(timeout=self.timeouts.rpc)
        except FutureTimeoutError:
            raise WireError(
                f"server call timed out after {self.timeouts.rpc}s"
            ) from None

    # -- loop thread ------------------------------------------------------

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.set_exception_handler(self._on_loop_exception)
        try:
            coro = loop.create_server(
                lambda: _WireProtocol(self), self.host, self.port
            )
            self._server = loop.run_until_complete(coro)
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as err:
            self._startup_error = err
            self._ready.set()
            loop.close()
            return
        self._hb_handle = loop.call_later(
            self.resilience.heartbeat_interval, self._heartbeat
        )
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                if self._server is not None:
                    self._server.close()
                    loop.run_until_complete(self._server.wait_closed())
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    def _heartbeat(self) -> None:
        """Loop-thread heartbeat: probe every live session, reap silent
        peers (they park), expire parked sessions past their grace."""
        self._hb_handle = None
        for proto in list(self._protocols):
            proto.session.heartbeat_tick()
        self.sessions.sweep(self.server, "tcp", self.errors.append)
        loop = self._loop
        if loop is not None and loop.is_running():
            self._hb_handle = loop.call_later(
                self.resilience.heartbeat_interval, self._heartbeat
            )

    def _on_loop_exception(self, loop, context) -> None:
        err = context.get("exception")
        self.errors.append(err if err is not None else
                           WireError(context.get("message", "loop error")))


class TcpTransport(ClientWire):
    """The client core over a blocking socket (Xlib-style synchronous
    round-trips), pluggable into
    :class:`~repro.xserver.client.ClientConnection` via ``transport=``.

    Wall-clock bounds come from *timeouts* (default
    ``WireTimeouts.uniform(10.0)``).  A blocking read gives up after
    *resilience*'s heartbeat interval, so silence triggers a PING probe.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 6600,
                 timeouts: Optional[WireTimeouts] = None,
                 resilience: ResilienceConfig = ResilienceConfig(),
                 sleep=time.sleep):
        super().__init__(resilience, sleep)
        self.host = host
        self.port = port
        self.timeouts = (
            timeouts if timeouts is not None else WireTimeouts.uniform(10.0)
        )
        self._sock: Optional[socket.socket] = None
        #: Read timeout of the current phase (handshake, steady, close).
        self._wait = resilience.heartbeat_interval

    def connect(self, proxy, name: str, coalesce: bool) -> None:
        self._wait = self.timeouts.handshake
        try:
            super().connect(proxy, name, coalesce)
        finally:
            self._set_wait(self.resilience.heartbeat_interval)

    def close(self) -> None:
        self._set_wait(self.timeouts.shutdown)
        super().close()

    def _set_wait(self, seconds: float) -> None:
        self._wait = seconds
        if self._sock is not None:
            try:
                self._sock.settimeout(seconds)
            except OSError:  # closed under us: the next read reports it
                pass

    # -- link primitives --------------------------------------------------

    def _open_link(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeouts.connect
        )
        sock.settimeout(self._wait)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    def _send_link(self, data: bytes) -> None:
        if self._sock is None:
            raise _LinkDown()
        try:
            self._sock.sendall(data)
        except OSError:
            self._close_link()
            raise _LinkDown() from None

    def _recv_link(self, block: bool) -> bytes:
        sock = self._sock
        if sock is None:
            raise _LinkDown()
        try:
            if not block and not select.select((sock,), (), (), 0)[0]:
                return b""
            data = sock.recv(65536)
        except socket.timeout:
            return b""
        except (OSError, ValueError):  # reset, or closed under us
            data = b""
        if not data:
            self._close_link()
            raise _LinkDown()
        return data

    def _close_link(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
