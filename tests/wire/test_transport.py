"""The ClientConnection split: proxy + ServerConnection over loopback.

Regression coverage for the refactor's contracts: the server-side
record is what ``server.clients`` holds (with the attributes the
oracles, fault plans and chaos predicates read), the loopback proxy
shares its queue with the record (synchronous delivery is unchanged),
and the two satellite fixes — close() after a server-side teardown is a
no-op, and flush_events/QueueEmpty route through the transport without
double-counting drops.
"""

import pytest

from repro.xserver import (
    ClientConnection,
    ConnectionClosed,
    EventMask,
    QueueEmpty,
    XServer,
)
from repro.xserver import events as ev
from repro.xserver.wire import LoopbackTransport, ServerConnection


@pytest.fixture
def server():
    return XServer()


@pytest.fixture
def conn(server):
    return ClientConnection(server, "app")


def make_window(conn, mask=EventMask.StructureNotify | EventMask.Exposure):
    wid = conn.create_window(conn.root_window(), 0, 0, 50, 50)
    conn.select_input(wid, mask)
    conn.map_window(wid)
    return wid


class TestConnectionSplit:
    def test_server_registers_the_record_not_the_proxy(self, server, conn):
        record = server.clients[conn.client_id]
        assert isinstance(record, ServerConnection)
        assert record is not conn
        # The attributes the chaos predicates, fault plans and quota
        # oracle read off server.clients entries:
        assert record.name == "app"
        assert record._queue is conn._queue

    def test_loopback_queue_is_shared(self, server, conn):
        wid = make_window(conn)
        conn.flush_events()
        conn.unmap_window(wid)
        record = server.clients[conn.client_id]
        assert record._queue is conn._queue
        assert len(record._queue) > 0
        # Draining the proxy drains the record (same deque object).
        conn.flush_events()
        assert len(record._queue) == 0

    def test_record_queue_event_reaches_proxy_handlers(self, server, conn):
        seen = []
        conn.event_handlers.append(seen.append)
        record = server.clients[conn.client_id]
        event = ev.Expose(window=5)
        record.queue_event(event)
        assert seen == [event]
        assert conn.next_event() is event

    def test_transport_is_loopback_by_default(self, conn):
        assert isinstance(conn._transport, LoopbackTransport)
        assert conn.server is conn._transport.server

    def test_constructor_requires_server_or_transport(self):
        with pytest.raises(TypeError):
            ClientConnection()


class TestCloseIsAliveConvergence:
    """Satellite: voluntary close() after a server-side teardown must
    not re-enter close_client."""

    def count_close_calls(self, server, monkeypatch):
        calls = []
        original = server.close_client

        def counting(client_id):
            calls.append(client_id)
            original(client_id)

        monkeypatch.setattr(server, "close_client", counting)
        return calls

    def test_close_after_server_side_kill_is_noop(
        self, server, conn, monkeypatch
    ):
        calls = self.count_close_calls(server, monkeypatch)
        server.close_client(conn.client_id)  # fault KILL path
        assert not conn.is_alive()
        assert calls == [conn.client_id]

        conn.close()  # voluntary close on the corpse
        assert calls == [conn.client_id], "close() re-entered close_client"
        assert conn.closed
        assert not conn.is_alive()

    def test_close_after_abandon_is_noop(self, server, conn, monkeypatch):
        wid = make_window(conn)
        calls = self.count_close_calls(server, monkeypatch)
        server.abandon_client(conn.client_id)  # RetainPermanent
        assert not conn.is_alive()

        conn.close()
        assert calls == [], "close() re-entered close_client after abandon"
        # The abandoned window must survive the voluntary close — the
        # whole point of RetainPermanent zombies.
        assert not server.window(wid).destroyed

    def test_voluntary_close_still_tears_down(self, server, conn, monkeypatch):
        wid = make_window(conn)
        calls = self.count_close_calls(server, monkeypatch)
        conn.close()
        assert calls == [conn.client_id]
        assert conn.closed and not conn.is_alive()
        assert wid not in server.windows or server.windows[wid].destroyed

    def test_double_close_runs_teardown_once(self, server, conn, monkeypatch):
        calls = self.count_close_calls(server, monkeypatch)
        conn.close()
        conn.close()
        assert calls == [conn.client_id]

    def test_requests_after_server_side_kill_raise(self, server, conn):
        server.close_client(conn.client_id)
        with pytest.raises(ConnectionClosed):
            conn.create_window(256, 0, 0, 10, 10)

    def test_connection_closed_hook_fires_once(self, server, conn):
        fired = []
        record = server.clients[conn.client_id]
        record.on_closed = lambda: fired.append(True)
        server.close_client(conn.client_id)
        server.close_client(conn.client_id)  # second call: already gone
        assert fired == [True]

    def test_connection_closed_hook_fires_on_abandon(self, server, conn):
        fired = []
        record = server.clients[conn.client_id]
        record.on_closed = lambda: fired.append(True)
        server.abandon_client(conn.client_id)
        assert fired == [True]


class TestEventRouting:
    """Satellite: flush_events discards and QueueEmpty behave
    identically through the transport seam."""

    def test_queue_empty_raises_through_proxy(self, conn):
        with pytest.raises(QueueEmpty):
            conn.next_event()
        # QueueEmpty subclasses IndexError for legacy callers.
        with pytest.raises(IndexError):
            conn.next_event()

    def test_flush_discards_counted_once(self, server, conn):
        wid = make_window(conn)
        conn.flush_events()  # drop setup noise
        server.stats().reset()
        conn.unmap_window(wid)
        conn.map_window(wid)  # UnmapNotify + MapNotify (+ Expose)
        before = server.stats().get("dropped", client=conn.client_id)
        kept = conn.flush_events(ev.MapNotify)
        assert [type(e).__name__ for e in kept] == ["MapNotify"]
        after = server.stats().get("dropped", client=conn.client_id)
        discarded = after - before
        # Exactly the non-matching events, each counted exactly once.
        stats, cid = server.stats(), conn.client_id
        assert discarded == stats.get(
            "dropped", type="UnmapNotify", client=cid
        ) + stats.get("dropped", type="Expose", client=cid)
        assert stats.get("dropped", type="UnmapNotify", client=cid) == 1

    def test_flush_without_filter_counts_nothing(self, server, conn):
        wid = make_window(conn)
        server.stats().reset()
        conn.unmap_window(wid)
        conn.flush_events()
        assert server.stats().get("dropped", client=conn.client_id) == 0

    def test_drain_feeds_quota_watchdog(self, server, conn):
        # next_event reports the drain exactly once per event popped.
        wid = make_window(conn)
        assert conn.pending() > 0
        drained_before = conn.client_id in server.quotas._drained
        server.quotas._drained.discard(conn.client_id)
        conn.next_event()
        assert conn.client_id in server.quotas._drained

    def test_is_alive_tracks_record_removal(self, server, conn):
        assert conn.is_alive()
        del server.clients[conn.client_id]  # server lost the record
        assert not conn.is_alive()
