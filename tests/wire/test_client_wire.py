"""One client wire loop, two link backends.

:class:`TcpTransport` and :class:`FramedTransport` run the same
request/recover core (:class:`ClientWire`) over different links: a
real socket to a :class:`WireServer`, or the deterministic in-process
:class:`FramedHost` pipe.  Every client-side recovery scenario here
runs over both through the ``backend`` fixture, so what the seeded
framed tours prove is proven for the code TCP runs:

- a cut link resumes with windows intact, and keeps healing across
  repeated flaps;
- a dead server ends in a bounded, clean :class:`SessionLost`;
- PING probes ride out a lagged reply without reconnecting;
- undecodable bytes from the server resume the session instead of
  escaping to the application.
"""

import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro.xserver import ClientConnection, XServer
from repro.xserver.faults import LAG, FaultPlan
from repro.xserver.wire import (
    FramedHost,
    FramedTransport,
    ResilienceConfig,
    SessionLost,
    TcpTransport,
    WireServer,
)

#: Client-side recovery tuning shared by both backends: fast backoff,
#: eight attempts before a dead server is declared lost.
CLIENT_TUNING = dict(backoff_base=0.01, backoff_cap=0.1, max_attempts=8)

#: A frame header announcing wire version 0xEE: no decoder accepts it.
GARBAGE = struct.pack(">I", 12) + b"\xee" * 8


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FramedBackend:
    """The deterministic link: server reactions happen synchronously
    inside the client's own calls, and backoff advances the manual
    park-grace clock."""

    name = "framed"

    def __init__(self, seed):
        self.server = XServer()
        self.host = FramedHost(
            self.server, ResilienceConfig(seed=seed, **CLIENT_TUNING)
        )
        self.errors = self.host.errors
        self.sessions = self.host.sessions
        self.seed = seed
        self.lag_rule = None

    def connect(self, name, lagged=False):
        plan = None
        if lagged:
            plan = FaultPlan(self.seed)
            self.lag_rule = plan.rule(
                LAG, probability=1.0, lag=2, direction="s2c", arm_after=1,
                max_fires=1, name="hold-reply",
            )
        transport = FramedTransport(self.host, plan, sleep=self.host.advance)
        return ClientConnection(name=name, transport=transport), transport

    def call(self, fn):
        return fn()

    def flap(self, transport, cid):
        transport._link.cut()

    def write_to_client(self, transport, data):
        transport._link._to_client(data)

    @contextmanager
    def lagging_reply(self):
        """The lag rule armed at connect holds the next reply."""
        yield

    def replies_lagged(self):
        return self.lag_rule.fires

    def kill(self):
        """Every link dies, and every new one is dead on arrival."""
        open_link = self.host.open_link

        def refused(plan=None):
            link = open_link(plan)
            link.cut()
            return link

        self.host.open_link = refused
        for link in list(self.host.links):
            link.cut()

    def stop(self):
        pass


class TcpBackend:
    """Real sockets to a threaded asyncio server.  A long server
    heartbeat keeps reaping out of the way of the recovery scenarios."""

    name = "tcp"

    def __init__(self, seed):
        self.server = XServer()
        self.wire = WireServer(self.server, resilience=ResilienceConfig(
            seed=7, heartbeat_interval=5.0, park_grace=30.0,
        ))
        self.wire.start()
        self.errors = self.wire.errors
        self.sessions = self.wire.sessions
        self.seed = seed
        self.lagged = 0

    def connect(self, name, lagged=False):
        # A lagged reply must outlast one read timeout (so the client
        # probes) but not the whole probe budget (so it never gives up).
        timing = dict(heartbeat_interval=0.1, miss_budget=5) if lagged else {}
        transport = TcpTransport(port=self.wire.port, resilience=(
            ResilienceConfig(seed=self.seed, **CLIENT_TUNING, **timing)
        ))
        return ClientConnection(name=name, transport=transport), transport

    def call(self, fn):
        return self.wire.call(fn)

    def flap(self, transport, cid):
        # Yank the socket; the server notices the EOF and parks.
        transport._sock.shutdown(socket.SHUT_RDWR)
        assert wait_until(
            lambda: self.call(lambda: self.server.clients[cid].parked)
        )

    def write_to_client(self, transport, data):
        (proto,) = self.wire._protocols
        self.call(lambda: proto.transport.write(data))

    @contextmanager
    def lagging_reply(self):
        """Hold the server's event loop for 0.25 s, so the next reply
        lags."""
        holding = threading.Event()

        def hold():
            holding.set()
            time.sleep(0.25)

        thread = threading.Thread(target=self.call, args=(hold,))
        thread.start()
        assert holding.wait(timeout=10.0)
        try:
            yield
        finally:
            thread.join()
        self.lagged += 1

    def replies_lagged(self):
        return self.lagged

    def kill(self):
        self.wire.stop()

    def stop(self):
        self.wire.stop()


@pytest.fixture(params=[FramedBackend, TcpBackend], ids=["framed", "tcp"])
def backend(request, wire_seed):
    made = request.param(wire_seed)
    yield made
    made.stop()


class TestClientRecovery:
    def test_reconnect_resumes_with_windows_intact(self, backend):
        conn, transport = backend.connect("phoenix")
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        conn.map_window(wid)
        cid = conn.client_id
        record = backend.call(lambda: backend.server.clients[cid])

        backend.flap(transport, cid)
        # Parked: the record (windows, XIDs, quotas) stays registered
        # and is flagged for the oracles.
        assert backend.call(lambda: record.parked) is True
        assert backend.call(backend.sessions.parked_count) == 1
        assert backend.call(lambda: backend.server.stats().get(
            "wire", transport=backend.name, key="parked")) == 1

        # The next request transparently reconnects and resumes.
        assert conn.window_exists(wid) is True
        assert transport.reconnects == 1
        assert len(transport.delays) == 1
        assert backend.call(lambda: backend.server.clients[cid]) is record
        assert backend.call(lambda: record.parked) is False
        assert backend.call(lambda: backend.server.stats().get(
            "wire", transport=backend.name, key="resumed")) == 1
        # Same client id, same session — not a new registration.
        assert conn.client_id == cid
        conn.close()
        assert backend.errors == []

    def test_repeated_flaps_keep_healing(self, backend):
        conn, transport = backend.connect("flappy")
        wid = conn.create_window(conn.root_window(), 0, 0, 20, 20)
        cid = conn.client_id
        for flap in range(3):
            backend.flap(transport, cid)
            conn.move_window(wid, flap, 0)
            assert conn.get_geometry(wid)[0] == flap
        assert transport.reconnects == 3
        conn.close()
        assert backend.errors == []

    def test_dead_server_is_a_clean_session_loss(self, backend):
        conn, transport = backend.connect("orphan")
        assert conn.intern_atom("ALIVE") > 0
        backend.kill()
        # Every reconnect attempt fails; the bottom rung is a clean,
        # bounded SessionLost — never a hang.
        with pytest.raises(SessionLost):
            conn.intern_atom("DEAD")
        assert not transport.is_alive()
        assert len(transport.delays) == 8  # all attempts, all backed off

    def test_client_probes_flush_a_lagged_reply(self, backend):
        conn, transport = backend.connect("laggard", lagged=True)
        # The reply to this request lags; the transport's PING probes
        # wait it out (on the framed link they age it loose) — no
        # reconnect needed.
        with backend.lagging_reply():
            assert conn.intern_atom("LAGGED") > 0
        assert backend.replies_lagged() == 1
        assert transport.reconnects == 0
        assert transport._ping_serial >= 1
        conn.close()

    def test_undecodable_server_bytes_resume_the_session(self, backend):
        conn, transport = backend.connect("poisoned")
        wid = conn.create_window(conn.root_window(), 0, 0, 20, 20)
        backend.write_to_client(transport, GARBAGE)
        # The poisoned stream cannot be resynchronized in place: the
        # client resumes on a fresh link, and the request in flight is
        # answered from the server's cached reply.
        assert conn.intern_atom("AFTER-POISON") > 0
        assert transport.reconnects == 1
        assert conn.window_exists(wid) is True
        conn.close()
        assert backend.errors == []
