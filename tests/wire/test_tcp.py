"""TCP integration: real sockets, a real WM, hostile peers.

The headline test runs 8 concurrent real-socket clients — seven benign
``TcpTransport`` connections doing ordinary window work and one hostile
raw socket that floods pipelined requests without ever reading — to
completion with zero unhandled exceptions, clean consistency + quota
oracles, and BackpressureStage throttling observable as TCP write
pauses in ``server.stats()``.
"""

import random
import socket
import struct
import threading
import time

import pytest

from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.testing import quota_problems, wm_consistency_problems
from repro.xserver import ClientConnection, EventMask, XServer
from repro.xserver import events as ev
from repro.xserver.faults import ConnectionClosed
from repro.xserver.fuzz import malformed_frames
from repro.xserver.quotas import QuotaLimits
from repro.xserver.wire import (
    ERROR,
    EVENT,
    HELLO,
    REPLY,
    REQUEST,
    SEQ_SIZE,
    WELCOME,
    FrameDecoder,
    ResilienceConfig,
    TcpTransport,
    WireServer,
    decode_event,
    decode_value,
    encode_frame,
    encode_request,
    encode_value,
)
from repro.xserver.wire.tcp import _WireProtocol


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def server():
    # Tight water marks so backpressure engages within test-sized
    # floods (same idiom as the quota suite).
    return XServer(quota_limits=QuotaLimits(
        high_water=64, low_water=16, hard_cap=256, coalesce_scan=16,
    ))


@pytest.fixture
def wire(server):
    # Small socket/write buffers so a non-reading peer triggers
    # pause_writing within test-sized floods.
    ws = WireServer(server, write_high_water=16 * 1024, sndbuf=8 * 1024)
    ws.start()
    yield ws
    ws.stop()


def connect(wire, name, coalesce=True):
    return ClientConnection(
        name=name,
        coalesce=coalesce,
        transport=TcpTransport(port=wire.port),
    )


def tiny_rcvbuf_socket(port):
    """A raw connection whose kernel receive buffer is as small as the
    OS allows, so a non-reading peer backs the server's writes up into
    the asyncio buffer quickly (deterministic pause_writing)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10)
    sock.connect(("127.0.0.1", port))
    return sock


def tcp_pauses(wire):
    return wire.call(
        lambda: wire.server.stats().get("wire", transport="tcp", key="pauses")
    )


class TestTcpBasics:
    def test_request_reply_events_and_errors(self, server, wire):
        conn = connect(wire, "basic")
        root = conn.root_window()
        wid = conn.create_window(root, 1, 2, 30, 20)
        conn.select_input(wid, EventMask.StructureNotify)
        assert conn.map_window(wid) is True
        assert conn.get_geometry(wid) == (1, 2, 30, 20, 0)
        assert conn.window_exists(wid)
        assert not conn.window_exists(wid + 999)

        from repro.xserver import BadWindow
        with pytest.raises(BadWindow):
            conn.map_window(wid + 999)

        assert wait_until(lambda: conn.pending() > 0)
        assert any(
            isinstance(e, ev.MapNotify) for e in conn.flush_events()
        )
        conn.close()
        assert not conn.is_alive()
        assert wait_until(
            lambda: wire.call(lambda: conn.client_id not in server.clients)
        )
        assert wire.errors == []

    def test_properties_and_atoms_across_the_wire(self, server, wire):
        conn = connect(wire, "props")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.set_string_property(wid, "WM_NAME", "remote")
        assert conn.get_string_property(wid, "WM_NAME") == "remote"
        atom = conn.intern_atom("WM_NAME")
        assert conn.get_atom_name(atom) == "WM_NAME"
        assert atom in conn.list_properties(wid)
        assert conn.screen_info()["root"] == conn.root_window()
        conn.close()
        assert wire.errors == []

    def test_handlers_fire_for_pushed_events(self, server, wire):
        conn = connect(wire, "reactive")
        seen = []
        conn.event_handlers.append(lambda e: seen.append(type(e).__name__))
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.select_input(wid, EventMask.StructureNotify)
        conn.map_window(wid)
        assert wait_until(lambda: (conn.pending(), "MapNotify" in seen)[1])
        conn.close()
        assert wire.errors == []

    def test_server_side_kill_reaches_the_client(self, server, wire):
        conn = connect(wire, "victim")
        assert conn.is_alive()
        wire.call(server.close_client, conn.client_id)
        assert wait_until(lambda: not conn.is_alive())
        with pytest.raises(ConnectionClosed):
            conn.create_window(conn.root_window(), 0, 0, 5, 5)
        assert wire.errors == []


class TestMalformedFrames:
    def test_corpus_against_live_server(self, server, wire, wire_seed):
        """Every malformed byte string costs at most its own connection:
        the server counts a protocol error, drops the peer, and keeps
        serving well-behaved clients."""
        rng = random.Random(wire_seed)
        corpus = malformed_frames(rng)
        for label, data in corpus:
            with socket.create_connection(
                ("127.0.0.1", wire.port), timeout=5
            ) as sock:
                sock.sendall(data)
                sock.settimeout(5)
                # The server answers with an ERROR frame and/or closes;
                # either way the stream ends.  Entries that are mere
                # truncated prefixes end at our half-close.
                try:
                    sock.shutdown(socket.SHUT_WR)
                    while sock.recv(4096):
                        pass
                except socket.timeout:
                    pytest.fail(f"stream for {label!r} never ended")
                except OSError:
                    pass
        # A fresh benign client still gets full service.
        conn = connect(wire, "survivor")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        assert conn.map_window(wid)
        conn.close()
        stats = wire.call(lambda: server.stats().snapshot())
        assert stats["wire"]["tcp"]["protocol_errors"] > 0
        assert wire.errors == []

    def test_poisoned_connection_is_dropped(self, server, wire):
        with socket.create_connection(
            ("127.0.0.1", wire.port), timeout=5
        ) as sock:
            sock.sendall(struct.pack(">I", 0xFFFFFFFF))  # absurd length
            sock.settimeout(5)
            chunks = b""
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    chunks += chunk
            except OSError:
                pass
        # Connection ended; no record leaked behind it.
        assert wire.call(lambda: len(server.clients)) == 0
        assert wire.errors == []


class TestEightClientIntegration:
    def benign_worker(self, wire, index, rng_seed, failures):
        try:
            rng = random.Random(rng_seed)
            conn = connect(wire, f"benign-{index}")
            root = conn.root_window()
            windows = []
            for step in range(30):
                action = rng.randrange(5)
                if action == 0 or not windows:
                    wid = conn.create_window(
                        root, rng.randrange(200), rng.randrange(200),
                        20 + rng.randrange(80), 20 + rng.randrange(80),
                    )
                    conn.select_input(
                        wid, EventMask.StructureNotify | EventMask.Exposure
                    )
                    windows.append(wid)
                elif action == 1:
                    conn.map_window(rng.choice(windows))
                elif action == 2:
                    conn.configure_window(
                        rng.choice(windows),
                        x=rng.randrange(300), y=rng.randrange(300),
                    )
                elif action == 3:
                    wid = rng.choice(windows)
                    conn.set_string_property(
                        wid, "WM_NAME", f"win-{index}-{step}"
                    )
                    assert conn.get_string_property(
                        wid, "WM_NAME"
                    ) == f"win-{index}-{step}"
                else:
                    conn.flush_events()
            assert conn.is_alive()
            conn.flush_events()
            conn.close()
        except Exception as err:  # noqa: BLE001 - the oracle is "none"
            failures.append((index, repr(err)))

    def read_frame(self, sock, decoder, pending, kinds=(REPLY, ERROR)):
        """Next frame of the wanted kinds; events interleave freely."""
        while True:
            while pending:
                frame = pending.pop(0)
                if frame.kind in kinds:
                    return frame
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed during handshake")
            pending.extend(decoder.feed(chunk))

    def hostile_worker(self, wire, failures):
        """A raw socket that handshakes politely, subscribes to events,
        then floods pipelined requests without ever reading again —
        reply and event frames back up in the kernel + asyncio write
        buffer until the server pauses, its server-side queue grows,
        and backpressure sheds/throttles.  The finale is a malformed
        frame, which costs it the connection."""
        try:
            sock = tiny_rcvbuf_socket(wire.port)
            decoder = FrameDecoder()
            pending = []
            sock.sendall(encode_frame(HELLO, 0, encode_value(
                {"name": "hostile", "coalesce": False}
            )))
            welcome = decode_value(
                self.read_frame(sock, decoder, pending,
                                kinds=(WELCOME,)).payload
            )
            wid = welcome["xid_base"]

            def ask(name, *args, **kwargs):
                op, payload = encode_request(name, args, kwargs)
                sock.sendall(encode_frame(REQUEST, op, payload))
                return decode_value(
                    self.read_frame(sock, decoder, pending).payload
                )

            root = ask("root_window")
            ask("create_window", wid, root, 0, 0, 32, 32,
                event_mask=EventMask.Exposure | EventMask.StructureNotify)
            ask("map_window", wid)
            # Storm: every request both awaits no reply and queues an
            # Expose at our own never-drained connection.
            op, payload = encode_request(
                "send_event",
                (wid, ev.Expose(window=wid, width=1, height=1),
                 EventMask.Exposure, False),
                {},
            )
            blob = encode_frame(REQUEST, op, payload) * 50
            for _ in range(100):
                try:
                    sock.sendall(blob)
                except OSError:
                    return  # server hung up on us: acceptable
            # Hold the socket open (still not reading) until the
            # server's replies have demonstrably backed up into a TCP
            # write pause; only then deliver the malformed goodbye.
            wait_until(lambda: tcp_pauses(wire) > 0, timeout=30)
            try:
                sock.sendall(b"\xde\xad\xbe\xef" * 4)  # malformed goodbye
            except OSError:
                pass  # already RST by the server: acceptable
            sock.close()
        except Exception as err:  # noqa: BLE001
            failures.append(("hostile", repr(err)))

    def test_eight_concurrent_clients_with_oracles(self, server, wire,
                                                   wire_seed):
        # A real WM manages the server over loopback while remote
        # clients work it over TCP; its handlers run reactively on the
        # wire server's loop thread.
        wm = wire.call(
            lambda: Swm(server, load_template("OpenLook+"),
                        places_path="/tmp/swm-wire-test.places")
        )
        failures = []
        threads = [
            threading.Thread(
                target=self.benign_worker,
                args=(wire, i, wire_seed + i, failures),
            )
            for i in range(7)
        ]
        threads.append(
            threading.Thread(target=self.hostile_worker,
                             args=(wire, failures))
        )
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads), "worker wedged"

        # Zero unhandled exceptions anywhere: workers, loop, protocol.
        assert failures == []
        assert wire.errors == []

        # Oracles run on the loop thread, against quiesced state.
        assert wire.call(lambda: quota_problems(server)) == []
        assert wire.call(lambda: wm_consistency_problems(wm)) == []

        stats = wire.call(lambda: server.stats().snapshot())
        wire_stats = stats["wire"]["tcp"]
        # Backpressure became real flow control: the non-reading peer
        # forced actual TCP write pauses...
        assert wire_stats["pauses"] > 0
        # ...and the server-side queue hit the water marks hard enough
        # to throttle or shed (the hostile peer's queue was bounded).
        throttled = sum(stats["quotas"]["throttles"].values())
        shed = sum(stats["quotas"]["shed"].values())
        forced = sum(stats["quotas"]["force_coalesced"].values())
        assert throttled + shed + forced > 0
        assert wire_stats["frames_in"] > 1000
        assert wire_stats["bytes_out"] > 0

        # Malformed frames are counted and contained, even after the
        # storm.  (The hostile's goodbye races against the server
        # dropping it at the hard cap, so assert on a fresh socket.)
        with socket.create_connection(("127.0.0.1", wire.port),
                                      timeout=5) as sock:
            sock.sendall(b"\xde\xad\xbe\xef" * 4)
            assert wait_until(
                lambda: wire.call(
                    lambda: server.stats().get(
                        "wire", transport="tcp", key="protocol_errors")
                ) > 0
            )


class TestStartupFailure:
    def test_port_conflict_surfaces_on_start(self, server):
        """Satellite check: start() must raise the loop thread's bind
        error instead of returning as if listening."""
        first = WireServer(server)
        first.start()
        try:
            second = WireServer(XServer(), port=first.port)
            with pytest.raises(OSError):
                second.start()
        finally:
            first.stop()


class TestAbruptDisconnect:
    """A peer that vanishes at the worst possible byte costs exactly
    its own connection: the record is cleaned up (save-set rescue runs)
    and no exception escapes to the loop."""

    def handshake(self, sock, name="abrupt"):
        sock.sendall(encode_frame(HELLO, 0, encode_value(
            {"name": name, "coalesce": True}
        )))
        decoder = FrameDecoder()
        frames = []
        while not frames:
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed during handshake")
            frames.extend(decoder.feed(chunk))
        assert frames[0].kind == WELCOME
        return decode_value(frames[0].payload), decoder

    def request_frame(self):
        return encode_frame(
            REQUEST, *encode_request("intern_atom", ("ABRUPT",), {})
        )

    def assert_cleaned_up(self, wire, server, cid):
        assert wait_until(
            lambda: wire.call(lambda: cid not in server.clients)
        )
        assert wire.errors == []

    def test_close_mid_frame_header(self, server, wire):
        with socket.create_connection(
            ("127.0.0.1", wire.port), timeout=5
        ) as sock:
            welcome, _ = self.handshake(sock)
            sock.sendall(self.request_frame()[:5])  # half a header
        self.assert_cleaned_up(wire, server, welcome["client_id"])

    def test_close_mid_frame_payload(self, server, wire):
        with socket.create_connection(
            ("127.0.0.1", wire.port), timeout=5
        ) as sock:
            welcome, _ = self.handshake(sock)
            frame = self.request_frame()
            sock.sendall(frame[:-3])  # header complete, payload short
        self.assert_cleaned_up(wire, server, welcome["client_id"])

    def test_half_close_during_reply(self, server, wire):
        """The peer shuts its write side while a reply is in flight:
        the reply is still delivered, then the stream ends cleanly."""
        with socket.create_connection(
            ("127.0.0.1", wire.port), timeout=5
        ) as sock:
            welcome, decoder = self.handshake(sock)
            sock.sendall(self.request_frame())
            sock.shutdown(socket.SHUT_WR)
            got = []
            sock.settimeout(10)
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    got.extend(decoder.feed(chunk))
            except OSError:
                pass
            assert any(f.kind == REPLY for f in got)
        self.assert_cleaned_up(wire, server, welcome["client_id"])

    def test_windows_are_rescued_on_abrupt_close(self, server, wire):
        transport = TcpTransport(port=wire.port)
        conn = ClientConnection(name="doomed", transport=transport)
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.map_window(wid)
        cid = conn.client_id
        # Yank the socket out from under the transport: no goodbye.
        transport._sock.close()
        self.assert_cleaned_up(wire, server, cid)
        assert wire.call(lambda: wid not in server.windows)


@pytest.fixture
def rserver():
    return XServer()


class TestTcpResilience:
    def test_silent_peer_is_reaped_parked_then_rescued(self, rserver):
        ws = WireServer(rserver, resilience=ResilienceConfig(
            seed=7, heartbeat_interval=0.05, miss_budget=2,
            park_grace=0.5,
        ))
        ws.start()
        try:
            sock = socket.create_connection(
                ("127.0.0.1", ws.port), timeout=5
            )
            sock.sendall(encode_frame(HELLO, 0, encode_value(
                {"name": "silent", "coalesce": True}
            )))
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames.extend(decoder.feed(sock.recv(4096)))
            cid = decode_value(frames[0].payload)["client_id"]
            # Go silent: never answer the server's PING probes.  The
            # server burns the miss budget, reaps us into a parked
            # session, then expires the park and rescues the estate.
            assert wait_until(
                lambda: ws.call(lambda: rserver.stats().get(
                    "wire", transport="tcp", key="peers_reaped")) == 1
            )
            assert wait_until(
                lambda: ws.call(lambda: rserver.stats().get(
                    "wire", transport="tcp", key="park_expired")) == 1
            )
            assert ws.call(lambda: cid not in rserver.clients)
            assert ws.call(lambda: ws.sessions.parked_count()) == 0
            sock.close()
            assert ws.errors == []
        finally:
            ws.stop()


class TestBackpressureFlowControl:
    def test_non_reading_client_is_paused_then_bounded(self, server, wire):
        """Flood one non-reading socket with events; the write pause
        must show up in stats and the server-side queue must stay under
        the hard cap (BackpressureStage did its job through the wire)."""
        sender = connect(wire, "sender")
        lurker_sock = tiny_rcvbuf_socket(wire.port)
        lurker_sock.sendall(encode_frame(HELLO, 0, encode_value(
            {"name": "lurker", "coalesce": False}
        )))
        # Let the server register the lurker, find its id + a window.
        assert wait_until(lambda: wire.call(lambda: len(server.clients)) >= 2)
        lurker_id = wire.call(
            lambda: next(cid for cid, sink in server.clients.items()
                         if sink.name == "lurker")
        )
        root = sender.root_window()

        def select_for_lurker():
            record = server.clients[lurker_id]
            # The lurker never reads its WELCOME — irrelevant; select
            # events on its behalf server-side to aim the flood.
            wid = server.create_window(
                lurker_id, record.xids.allocate(), root, 0, 0, 10, 10,
                event_mask=EventMask.Exposure,
            ).id
            server.map_window(lurker_id, wid)
            return wid

        wid = wire.call(select_for_lurker)
        # Hammer Expose at the lurker via SendEvent from the sender.
        for burst in range(60):
            for i in range(20):
                sender.send_event(
                    wid,
                    ev.Expose(window=wid, x=i, y=burst, width=1, height=1),
                    EventMask.Exposure,
                )
        stats = wire.call(lambda: server.stats().snapshot())
        queue_len = wire.call(
            lambda: len(server.clients[lurker_id]._queue)
            if lurker_id in server.clients else 0
        )
        hard_cap = server.quotas.limits.hard_cap
        assert queue_len <= hard_cap
        assert stats["wire"]["tcp"]["pauses"] > 0
        assert wire.call(lambda: quota_problems(server)) == []
        sender.close()
        lurker_sock.close()
        assert wire.errors == []


class FakeTransport:
    """The part of an asyncio transport ``_WireProtocol`` uses, logging
    every write and the close in order: no socket, no loop, no thread."""

    def __init__(self):
        self.log = []

    def get_extra_info(self, name):
        return None

    def set_write_buffer_limits(self, high):
        self.high = high

    def write(self, data):
        self.log.append(("write", bytes(data)))

    def close(self):
        self.log.append(("close",))

    def writes(self):
        return [entry[1] for entry in self.log if entry[0] == "write"]


def frames_of(data):
    return FrameDecoder().feed(data)


class TestOneWritePerRead:
    """What one inbound read makes the server write: the frames of one
    ``data_received`` leave in a single ``transport.write``, bounded by
    ``write_high_water``, with an ERROR frame still ahead of a close."""

    def protocol(self, high_water=64 * 1024):
        # Never started: the protocol runs on this thread, fed by hand.
        proto = _WireProtocol(WireServer(XServer(), write_high_water=high_water))
        fake = FakeTransport()
        proto.connection_made(fake)
        proto.data_received(encode_frame(HELLO, 0, encode_value(
            {"name": "corked", "coalesce": True}
        )))
        (welcome,) = frames_of(b"".join(fake.writes()))
        assert welcome.kind == WELCOME
        fake.log.clear()
        return proto, fake, decode_value(welcome.payload)

    def request(self, proto, name, *args, **kwargs):
        proto.data_received(encode_frame(
            REQUEST, *encode_request(name, args, kwargs)
        ))

    def test_configure_event_and_reply_share_one_write(self):
        proto, fake, welcome = self.protocol()
        server = proto.wire.server
        wid = welcome["xid_base"] + 1
        self.request(proto, "create_window", wid, server.screens[0].root.id,
                     0, 0, 40, 30, event_mask=EventMask.StructureNotify)
        fake.log.clear()
        self.request(proto, "configure_window", wid, 0x3, x=5, y=7)
        assert len(fake.writes()) == 1
        event, reply = frames_of(fake.writes()[0])
        assert (event.kind, reply.kind) == (EVENT, REPLY)
        notify = decode_event(event.payload[SEQ_SIZE:])
        assert isinstance(notify, ev.ConfigureNotify)
        assert (notify.window, notify.x, notify.y) == (wid, 5, 7)
        assert decode_value(reply.payload) is True

    def test_a_long_feed_writes_early_at_the_high_water_mark(self):
        high_water = 512
        proto, fake, _ = self.protocol(high_water)
        root = proto.wire.server.screens[0].root.id
        frame = encode_frame(REQUEST, *encode_request(
            "query_tree", (root,), {}
        ))
        proto.data_received(frame * 200)
        writes = fake.writes()
        replies = frames_of(b"".join(writes))
        assert [f.kind for f in replies] == [REPLY] * 200
        largest = max(len(encode_frame(f.kind, f.opcode, f.payload))
                      for f in replies)
        assert len(writes) > 1
        assert max(map(len, writes)) <= high_water + largest

    def test_error_frame_is_written_before_the_close(self):
        proto, fake, _ = self.protocol()
        proto.data_received(b"\xde\xad\xbe\xef" * 4)
        assert [entry[0] for entry in fake.log] == ["write", "close"]
        (error,) = frames_of(fake.log[0][1])
        assert error.kind == ERROR
