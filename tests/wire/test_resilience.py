"""Wire resilience: heartbeats, parking, resume, replay, link faults.

Covers the connection-lifecycle layer end to end, deterministically —
every scenario runs over the synchronous :class:`FramedHost` harness
(manual clock, no sockets), so park-grace expiry, reconnect races and
seeded link chaos are plain inputs, not timing weather:

- unit behaviour of :class:`Backoff`, :class:`ReplayRing`,
  :class:`ClientSession` (sequence dedup / gap / reconcile) and
  :class:`SessionTable`;
- the resume handshake at the frame level: cached-reply resend
  (exactly-once execution), retransmit-after-loss, ledger divergence,
  unknown tokens;
- park + resume through a real client: events delivered while parked
  replay in order, a reaped peer comes back (the recovery scenarios
  the TCP client shares live in ``test_client_wire.py``);
- the degradation ladder's bottom rungs: ring overflow and grace
  expiry end in a clean close (never a hang), including a reconnect
  racing the expiry from both sides of the deadline;
- the :class:`LinkFaultInjector` kinds one by one, plus a seeded
  mixed-chaos run that must heal every flap and replay bit-identically.
"""

import random

import pytest

from repro.xserver import (
    ClientConnection,
    ConnectionClosed,
    EventMask,
    XServer,
)
from repro.xserver import events as ev
from repro.xserver.errors import BadImplementation, BadValue
from repro.xserver.faults import (
    CORRUPT,
    DUPLICATE,
    LAG,
    PARTITION,
    REORDER,
    TRUNCATE,
    FaultPlan,
    FaultRule,
)
from repro.xserver.wire import (
    EVENT,
    HELLO,
    PING,
    PONG,
    REPLY,
    REQUEST,
    RESUME,
    RESUMED,
    SEQ,
    WELCOME,
    Backoff,
    ClientSession,
    FrameDecoder,
    FramedHost,
    FramedTransport,
    LinkDesync,
    LinkFaultInjector,
    ManualClock,
    ReplayRing,
    ResilienceConfig,
    SessionLost,
    SessionTable,
    WireProtocolError,
    WireTimeouts,
    encode_frame,
    encode_request,
    encode_value,
    decode_value,
)
from repro.xserver.wire import resilience

from ..xserver.test_atoms_properties import count_requests


@pytest.fixture
def server():
    return XServer()


def make_host(server, seed=0, **overrides):
    cfg = ResilienceConfig(seed=seed, **overrides)
    return FramedHost(server, cfg)


def framed(server, key):
    """One of the server's framed-transport wire counters."""
    return server.stats().get("wire", transport="framed", key=key)


def connect(server, host, plan=None, name="app"):
    transport = FramedTransport(host, plan, sleep=host.advance)
    return ClientConnection(name=name, transport=transport), transport


class RawPeer:
    """Hand-rolled client for frame-level handshake tests."""

    def __init__(self, link):
        self.link = link
        self.decoder = FrameDecoder()

    def send(self, kind, opcode, payload):
        self.link.send(encode_frame(kind, opcode, payload))

    def request(self, name, *args):
        self.send(REQUEST, *encode_request(name, args, {}))
        return self.recv()

    def recv(self):
        return self.decoder.feed(self.link.take())


def raw_hello(host, name="raw"):
    peer = RawPeer(host.open_link())
    peer.send(HELLO, 0, encode_value({"name": name, "coalesce": True}))
    (welcome,) = peer.recv()
    assert welcome.kind == WELCOME
    return peer, decode_value(welcome.payload)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_bounded_exponential_with_seeded_jitter(self, wire_seed):
        cfg = ResilienceConfig(
            backoff_base=0.05, backoff_cap=2.0, max_attempts=6,
            jitter=0.25,
        )
        delays = list(Backoff(cfg, random.Random(wire_seed)).delays())
        assert len(delays) == cfg.max_attempts
        for attempt, delay in enumerate(delays):
            base = min(cfg.backoff_cap, cfg.backoff_base * 2 ** attempt)
            assert base <= delay <= base * (1 + cfg.jitter)
        # Same seed, same jitter sequence — reconnect timing replays.
        again = list(Backoff(cfg, random.Random(wire_seed)).delays())
        assert delays == again

    def test_zero_jitter_is_pure_exponential(self):
        cfg = ResilienceConfig(
            backoff_base=0.1, backoff_cap=0.4, max_attempts=4, jitter=0.0
        )
        delays = list(Backoff(cfg, random.Random(1)).delays())
        assert delays == [0.1, 0.2, 0.4, 0.4]


class TestReplayRing:
    def test_ack_trims_and_replay_filters(self):
        ring = ReplayRing(capacity=8)
        for seq in range(1, 6):
            ring.append(seq, 7, b"e%d" % seq)
        ring.ack(3)
        assert len(ring) == 2
        assert ring.replay_from(3) == [(4, 7, b"e4"), (5, 7, b"e5")]
        assert ring.replay_from(4) == [(5, 7, b"e5")]
        assert ring.replay_from(5) == []

    def test_overflow_remembers_what_it_dropped(self):
        ring = ReplayRing(capacity=3)
        for seq in range(1, 8):
            ring.append(seq, 7, b"")
        assert len(ring) == 3
        assert ring.dropped_through == 4
        # A client that saw less than the dropped range cannot resume.
        assert ring.replay_from(2) is None
        assert ring.replay_from(4) == [(5, 7, b""), (6, 7, b""), (7, 7, b"")]


class TestWireTimeouts:
    def test_uniform_maps_the_legacy_single_knob(self):
        t = WireTimeouts.uniform(2.5)
        assert (t.connect, t.handshake, t.rpc, t.shutdown) == (2.5,) * 4

    def test_defaults_match_the_old_hardcoded_ten_seconds(self):
        t = WireTimeouts()
        assert (t.connect, t.handshake, t.rpc, t.shutdown) == (10.0,) * 4


class TestClientSession:
    def make(self, **kw):
        return ClientSession("app", True, **kw)

    def test_event_sequencing_dedup_and_gap(self):
        cs = self.make()
        assert cs.accept_event(SEQ.pack(1) + b"a") == b"a"
        assert cs.accept_event(SEQ.pack(2) + b"b") == b"b"
        # Duplicate (replay overlap): dropped, counted, no state change.
        assert cs.accept_event(SEQ.pack(2) + b"b") is None
        assert cs.dup_events == 1
        assert cs.events_seen == 2
        # A gap means bytes vanished on a live link: poison.
        with pytest.raises(LinkDesync):
            cs.accept_event(SEQ.pack(4) + b"d")
        with pytest.raises(WireProtocolError):
            cs.accept_event(b"\x00")  # no sequence prefix

    def test_ack_due_every_n_events(self):
        cs = self.make(ack_every=3)
        for seq in range(1, 3):
            cs.accept_event(SEQ.pack(seq) + b"x")
            assert cs.ack_due() is None
        cs.accept_event(SEQ.pack(3) + b"x")
        assert cs.ack_due() == 3
        assert cs.ack_due() is None  # not due again until 3 more

    def test_reconcile_retransmit_cached_and_divergence(self):
        cs = self.make()
        cs.requests_sent, cs.replies_seen = 5, 4
        # Server never executed the in-flight request: retransmit.
        assert cs.reconcile(4) is True
        # Server executed it (cached reply on the way): no retransmit.
        assert cs.reconcile(5) is False
        # Nothing in flight and counts agree: no retransmit.
        cs.replies_seen = 5
        assert cs.reconcile(5) is False
        # Anything else is divergence.
        with pytest.raises(SessionLost):
            cs.reconcile(7)


class TestSessionTable:
    def test_expiry_is_clock_driven(self):
        clock = ManualClock()
        table = SessionTable(clock=clock)
        assert table.mint() != table.mint()
        ring = ReplayRing(4)

        def park(token, deadline):
            server = XServer()
            conn = ClientConnection(server, "p")
            from repro.xserver.wire.resilience import ParkedSession

            parked = ParkedSession(
                token=token, record=server.clients[conn.client_id],
                ring=ring, last_seq=0, executed=0, last_reply=None,
                deadline=deadline,
            )
            table.park(parked)
            return parked

        park("a", deadline=10.0)
        kept = park("b", deadline=20.0)
        clock.advance(10.0)
        expired = table.expire()
        assert [p.token for p in expired] == ["a"]
        assert table.parked_count() == 1
        assert table.claim("b") is kept
        assert table.claim("b") is None


# ---------------------------------------------------------------------------
# Frame-level resume handshake (exactly-once semantics)
# ---------------------------------------------------------------------------


class TestResumeHandshake:
    def test_welcome_advertises_resilience(self, server):
        host = make_host(server)
        _, welcome = raw_hello(host)
        assert welcome["resume_token"] == "swm-sess-000001"
        assert welcome["heartbeat_interval"] == 1.0
        assert welcome["miss_budget"] == 3
        assert welcome["ack_every"] == 64

    def test_cut_before_hello_parks_nothing(self, server):
        host = make_host(server)
        clients = dict(server.clients)
        link = host.open_link()
        link.send(encode_frame(HELLO, 0, b"")[:4])  # half a header
        link.cut()
        assert server.clients == clients
        assert host.sessions.parked_count() == 0
        assert framed(server, "parked") == 0
        assert host.errors == []

    def test_cached_reply_resent_never_reexecuted(self, server):
        host = make_host(server)
        peer, welcome = raw_hello(host)
        (reply,) = peer.request("intern_atom", "FIRST")
        assert reply.kind == REPLY
        # The link dies between execute and reply: the server executed
        # request #2 but we never read the answer.
        peer.send(REQUEST, *encode_request("intern_atom", ("SECOND",), {}))
        executed = peer.link.session.state.executed
        assert executed == 2
        peer.link.cut()
        assert host.sessions.parked_count() == 1

        peer2 = RawPeer(host.open_link())
        peer2.send(RESUME, 0, encode_value({
            "token": welcome["resume_token"],
            "events_seen": 0, "requests_sent": 2, "replies_seen": 1,
        }))
        frames = peer2.recv()
        assert [f.kind for f in frames] == [RESUMED, REPLY]
        verdict = decode_value(frames[0].payload)
        assert verdict["ok"] is True
        assert verdict["executed"] == 2
        assert verdict["client_id"] == welcome["client_id"]
        # Exactly-once: the resume resent the cached reply instead of
        # running the request again.
        assert peer2.link.session.state.executed == 2
        assert framed(server, "replayed_replies") == 1

    def test_lost_request_is_retransmitted_not_assumed(self, server):
        host = make_host(server)
        peer, welcome = raw_hello(host)
        peer.request("intern_atom", "FIRST")
        # Request #2 was lost on the wire: the client counted it, the
        # server never saw it.
        peer.link.cut()
        peer2 = RawPeer(host.open_link())
        peer2.send(RESUME, 0, encode_value({
            "token": welcome["resume_token"],
            "events_seen": 0, "requests_sent": 2, "replies_seen": 1,
        }))
        (resumed,) = peer2.recv()
        verdict = decode_value(resumed.payload)
        assert verdict["ok"] is True
        assert verdict["executed"] == 1  # client must retransmit
        (reply,) = peer2.request("intern_atom", "SECOND")
        assert reply.kind == REPLY
        assert peer2.link.session.state.executed == 2

    def test_diverged_ledger_is_session_lost_with_close(self, server):
        host = make_host(server)
        peer, welcome = raw_hello(host)
        cid = welcome["client_id"]
        peer.request("intern_atom", "FIRST")
        peer.link.cut()
        peer2 = RawPeer(host.open_link())
        peer2.send(RESUME, 0, encode_value({
            "token": welcome["resume_token"],
            "events_seen": 0, "requests_sent": 5, "replies_seen": 0,
        }))
        (resumed,) = peer2.recv()
        verdict = decode_value(resumed.payload)
        assert verdict["ok"] is False
        assert verdict["reason"] == "request-ledger-diverged"
        # Bottom rung: ordinary close ran, nothing parked, link cut.
        assert cid not in server.clients
        assert host.sessions.parked_count() == 0
        assert not peer2.link.up
        assert framed(server, "sessions_lost") == 1

    def test_unknown_token_rejected_cleanly(self, server):
        host = make_host(server)
        peer2 = RawPeer(host.open_link())
        peer2.send(RESUME, 0, encode_value({
            "token": "swm-sess-bogus",
            "events_seen": 0, "requests_sent": 0, "replies_seen": 0,
        }))
        (resumed,) = peer2.recv()
        assert decode_value(resumed.payload) == {
            "ok": False, "reason": "unknown-token",
        }
        assert not peer2.link.up
        assert host.errors == []

    def test_ping_answered_with_pong_even_before_hello(self, server):
        host = make_host(server)
        peer = RawPeer(host.open_link())
        peer.send(PING, 0, SEQ.pack(7))
        (pong,) = peer.recv()
        assert pong.kind == PONG
        assert pong.payload == SEQ.pack(7)


# ---------------------------------------------------------------------------
# Exactly-once execution through a real client
# ---------------------------------------------------------------------------


@pytest.fixture
def executions(monkeypatch):
    """Names of the requests the wire server executes, in order."""
    names = []
    dispatch = resilience.dispatch_request

    def counting(server, record, name, args, kwargs):
        names.append(name)
        return dispatch(server, record, name, args, kwargs)

    monkeypatch.setattr(resilience, "dispatch_request", counting)
    return names


class TestExactlyOnce:
    def test_link_cut_by_the_requests_own_event_runs_it_once(
        self, server, executions
    ):
        host = make_host(server)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        conn.select_input(wid, EventMask.StructureNotify)
        conn.map_window(wid)
        conn.events()
        link = transport._link
        to_client = link.session._send_raw

        def partition_first_event(data):
            if data[5] == EVENT:  # the frame kind byte
                link.cut()  # the frame is lost with the link
            else:
                to_client(data)

        link.session._send_raw = partition_first_event
        assert conn.configure_window(wid, x=50) is True
        assert executions.count("configure_window") == 1
        assert framed(server, "replayed_replies") == 1
        assert transport.reconnects == 1
        assert server.get_geometry(wid)[0] == 50
        moves = [e for e in conn.events()
                 if isinstance(e, ev.ConfigureNotify)]
        assert [e.x for e in moves] == [50]
        assert host.errors == []

    def test_server_bug_answers_bad_implementation_once(
        self, server, executions, monkeypatch
    ):
        host = make_host(server)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        # A server bug: configure_window raises TypeError, once.
        configure = server.configure_window
        bugs = [TypeError("unsupported operand")]

        def buggy_configure(*args, **kwargs):
            if bugs:
                raise bugs.pop()
            return configure(*args, **kwargs)

        monkeypatch.setattr(server, "configure_window", buggy_configure)
        with pytest.raises(BadImplementation):
            conn.configure_window(wid, x=10)
        assert executions.count("configure_window") == 1
        assert [type(err) for err in host.errors] == [TypeError]
        assert conn.map_window(wid) is True
        assert transport.reconnects == 0


class TestWrongKindArguments:
    """A fixed-width argument of the wrong kind fails on the client
    that made it, before anything is sent: the server never runs it,
    so it cannot poison the server for other clients."""

    def test_wrong_kinds_are_bad_value_and_poison_nothing(
        self, server, executions
    ):
        host = make_host(server)
        conn, transport = connect(server, host)
        root = conn.root_window()
        wid = conn.create_window(root, 0, 0, 60, 40)
        conn.map_window(wid)
        ran = list(executions)

        with pytest.raises(BadValue):
            conn.grab_pointer(wid, "zz", [1, 2], None)
        with pytest.raises(BadValue):
            conn.configure_window(wid, x="zz")
        assert executions == ran  # the server ran neither
        assert server.active_grab is None
        assert transport.reconnects == 0

        # An innocent loopback client and the server's own input path.
        innocent = ClientConnection(server, "innocent")
        innocent.warp_pointer(root, 30, 20)
        server.motion(40, 25)
        assert host.errors == []

        # The peer keeps its session.
        assert conn.configure_window(wid, x=5) is True
        assert server.get_geometry(wid)[0] == 5
        assert conn.is_alive()
        assert transport.reconnects == 0

    def test_positions_keep_to_sixteen_bits(self, server):
        """Every coordinate the server derives must fit the wire's
        64-bit event fields, so window positions and border widths keep
        to X11's 16 bits.  A window at the 64-bit edge would otherwise
        make the server's own motion() fail to encode the peer's
        grabbed MotionNotify."""
        host = make_host(server)
        conn, transport = connect(server, host)
        root = conn.root_window()
        with pytest.raises(BadValue):
            conn.create_window(root, -2**63 + 5, 0, 50, 50)
        wid = conn.create_window(root, 0, 0, 50, 50)
        with pytest.raises(BadValue):
            conn.configure_window(wid, border_width=2**62)
        with pytest.raises(BadValue):
            conn.reparent_window(wid, root, 0, -2**62)
        conn.map_window(wid)
        conn.grab_pointer(wid, EventMask.PointerMotion)
        server.motion(100, 100)
        assert [type(e) for e in conn.events()] == [ev.MotionNotify]
        assert host.errors == []
        assert transport.reconnects == 0


# ---------------------------------------------------------------------------
# Park + resume through a real client
# ---------------------------------------------------------------------------


class TestParkAndResume:
    def test_events_delivered_while_parked_replay_in_order(self, server):
        host = make_host(server, ack_every=100)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        conn.select_input(wid, EventMask.StructureNotify)
        conn.map_window(wid)
        conn.events()  # drain the setup noise

        transport._link.cut()
        driver = ClientConnection(server, "driver")
        for x in range(5):
            driver.move_window(wid, 10 + x, 20)
        # The parked session absorbed those into its replay ring.
        assert server.clients[conn.client_id].parked is True

        events = conn.events()  # pump -> recover -> resume -> replay
        moves = [e for e in events if isinstance(e, ev.ConfigureNotify)]
        assert [e.x for e in moves] == [10, 11, 12, 13, 14]
        assert transport.reconnects == 1
        assert framed(server, "replayed_events") == 5
        # No duplicates slipped through the seq filter.
        assert transport._cs.dup_events == 0

    def test_the_atom_cache_survives_a_resume(self, server, monkeypatch):
        host = make_host(server)
        conn, transport = connect(server, host)
        atom = conn.intern_atom("SWM_KEPT")
        sent = count_requests(monkeypatch, conn)
        transport._link.cut()
        # Checking the link before answering resumes the session.
        assert conn.intern_atom("SWM_KEPT") == atom
        assert conn.intern_atom("WM_NAME") == 39
        assert transport.reconnects == 1
        assert sent == []
        assert conn.intern_atom("SWM_FRESH") > atom
        assert sent == ["intern_atom"]

    def test_heartbeat_reaps_silent_peer_into_park(self, server):
        host = make_host(server, miss_budget=2)
        conn, transport = connect(server, host)
        cid = conn.client_id
        # The client goes silent; the server probes, then reaps.
        for _ in range(4):
            host.heartbeat_tick()
        assert framed(server, "peers_reaped") == 1
        assert framed(server, "pings_out") >= 1
        assert host.sessions.parked_count() == 1
        assert server.clients[cid].parked is True
        # Reaped is parked, not closed: the client comes back.
        assert conn.intern_atom("BACK") > 0
        assert transport.reconnects == 1


# ---------------------------------------------------------------------------
# Degradation ladder: overflow, expiry, and the reconnect race
# ---------------------------------------------------------------------------


class TestDegradation:
    def overflow_setup(self, server):
        host = make_host(server, ring_capacity=3, ack_every=100)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        conn.select_input(wid, EventMask.StructureNotify)
        conn.map_window(wid)
        conn.events()
        transport._link.cut()
        driver = ClientConnection(server, "driver")
        for x in range(10):  # 10 events into a 3-slot ring
            driver.move_window(wid, x, 0)
        return host, conn, transport, wid

    def test_ring_overflow_is_clean_session_loss(self, server):
        host, conn, transport, wid = self.overflow_setup(server)
        cid = conn.client_id
        with pytest.raises(SessionLost) as excinfo:
            conn.intern_atom("TOO-LATE")
        assert excinfo.value.reason == "event-ring-overflow"
        # The ordinary close path ran: record gone, windows destroyed,
        # nothing parked, nothing hung.
        assert cid not in server.clients
        assert wid not in server.windows
        assert host.sessions.parked_count() == 0
        assert framed(server, "sessions_lost") == 1
        assert not transport.is_alive()
        # SessionLost IS a ConnectionClosed: old handlers already cope.
        assert isinstance(excinfo.value, ConnectionClosed)

    def test_park_grace_expiry_rescues_the_estate(self, server):
        host = make_host(server, park_grace=30.0)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        cid = conn.client_id
        transport._link.cut()
        host.advance(31.0)
        assert framed(server, "park_expired") == 1
        assert cid not in server.clients
        assert wid not in server.windows
        with pytest.raises(SessionLost) as excinfo:
            conn.intern_atom("GONE")
        assert excinfo.value.reason == "unknown-token"
        assert host.errors == []

    def test_a_loss_noticed_by_pump_keeps_its_reason(self, server):
        """``is_alive`` pumps, the pump's recovery fails: the next
        request raises that SessionLost, reason intact."""
        host = make_host(server, park_grace=30.0)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        transport._link.cut()
        host.advance(31.0)
        assert not conn.is_alive()
        with pytest.raises(SessionLost) as excinfo:
            conn.map_window(wid)
        assert excinfo.value.reason == "unknown-token"
        assert host.errors == []

    def test_each_later_request_raises_a_new_loss(self, server):
        """The kept loss is copied for each request that raises it, from
        the connection or the transport: one object raised again and
        again would grow its traceback with every call."""
        host = make_host(server, park_grace=30.0)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        transport._link.cut()
        host.advance(31.0)
        assert not conn.is_alive()
        calls = [lambda: conn.map_window(wid)] * 3 + [
            lambda: transport.request("map_window", (wid,))] * 3
        raised = []
        for call in calls:
            with pytest.raises(SessionLost) as excinfo:
                call()
            raised.append(excinfo.value)

        def depth(tb):
            return 0 if tb is None else 1 + depth(tb.tb_next)

        assert len({id(err) for err in raised}) == len(calls)
        assert {err.reason for err in raised} == {"unknown-token"}
        assert len({depth(err.__traceback__) for err in raised[:3]}) == 1
        assert len({depth(err.__traceback__) for err in raised[3:]}) == 1

    def test_reconnect_wins_the_race_just_inside_grace(self, server):
        host = make_host(server, park_grace=30.0)
        conn, transport = connect(server, host)
        wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
        transport._link.cut()
        host.advance(29.9)
        assert conn.window_exists(wid) is True
        assert transport.reconnects == 1
        assert framed(server, "park_expired") == 0

    def test_reconnect_loses_the_race_at_the_deadline(self, server):
        host = make_host(server, park_grace=30.0)
        conn, transport = connect(server, host)
        conn.create_window(conn.root_window(), 0, 0, 60, 40)
        transport._link.cut()
        host.advance(30.0)  # deadline inclusive: the session expired
        with pytest.raises(SessionLost):
            conn.intern_atom("LATE")
        assert not transport.is_alive()
        assert host.sessions.parked_count() == 0
        assert host.errors == []

    def test_backoff_sleeps_can_cross_the_deadline(self, server):
        # The grace clock keeps running while the client backs off: a
        # park_grace shorter than the first backoff delay expires the
        # session mid-recovery, and the client gets a clean loss.
        host = make_host(
            server, park_grace=0.01, backoff_base=0.05, jitter=0.0
        )
        conn, transport = connect(server, host)
        transport._link.cut()
        with pytest.raises(SessionLost) as excinfo:
            conn.intern_atom("RACED")
        assert excinfo.value.reason == "unknown-token"
        assert framed(server, "park_expired") == 1


# ---------------------------------------------------------------------------
# Link fault injector, kind by kind
# ---------------------------------------------------------------------------


def one_shot(kind, **kw):
    plan = FaultPlan(1)
    plan.rule(kind, probability=1.0, max_fires=1, **kw)
    return plan


REQ_FRAME = encode_frame(REQUEST, *encode_request("intern_atom", ("A",), {}))
EVT_FRAME = encode_frame(EVENT, 3, SEQ.pack(1) + b"body")


class TestLinkFaultInjector:
    def test_partition_drops_frame_and_cuts(self):
        inj = LinkFaultInjector(one_shot(PARTITION), "c2s")
        out, cut = inj.transit(REQ_FRAME)
        assert out == [] and cut is True

    def test_truncate_emits_half_then_cuts(self):
        inj = LinkFaultInjector(one_shot(TRUNCATE), "c2s")
        out, cut = inj.transit(REQ_FRAME)
        assert cut is True
        assert out == [REQ_FRAME[: len(REQ_FRAME) // 2]]

    def test_corrupt_poisons_the_decoder_deterministically(self):
        inj = LinkFaultInjector(one_shot(CORRUPT), "c2s")
        out, cut = inj.transit(REQ_FRAME)
        assert cut is False and len(out) == 1
        with pytest.raises(WireProtocolError):
            FrameDecoder().feed(out[0])

    def test_duplicate_hits_events_not_requests(self):
        plan = FaultPlan(1)
        plan.rule(DUPLICATE, probability=1.0, name="dup")
        inj = LinkFaultInjector(plan, "s2c")
        # A REQUEST/REPLY frame is not dedupable: the rule never
        # matches it (no draw, no fire) and the frame passes through.
        out, cut = inj.transit(REQ_FRAME)
        assert out == [REQ_FRAME] and cut is False
        assert plan.rules[0].fires == 0
        # An EVENT frame carries a sequence number: fair game.
        out, cut = inj.transit(EVT_FRAME)
        assert out == [EVT_FRAME, EVT_FRAME] and cut is False
        assert plan.rules[0].fires == 1

    def test_lag_holds_until_later_traffic_releases(self):
        inj = LinkFaultInjector(one_shot(LAG, lag=2), "s2c")
        out, _ = inj.transit(b"AAAAAAAA")
        assert out == []  # held
        out, _ = inj.transit(b"BBBBBBBB")
        assert out == [b"BBBBBBBB"]  # one transit aged, still held
        out, _ = inj.transit(b"CCCCCCCC")
        assert out == [b"CCCCCCCC", b"AAAAAAAA"]  # released after lag=2

    def test_reorder_swaps_adjacent_frames(self):
        inj = LinkFaultInjector(one_shot(REORDER), "s2c")
        out, _ = inj.transit(b"AAAAAAAA")
        assert out == []
        out, _ = inj.transit(b"BBBBBBBB")
        assert out == [b"BBBBBBBB", b"AAAAAAAA"]

    def test_partition_loses_held_frames_too(self):
        plan = FaultPlan(1)
        plan.rule(LAG, probability=1.0, lag=5, max_fires=1)
        plan.rule(PARTITION, probability=1.0, max_fires=1)
        inj = LinkFaultInjector(plan, "s2c")
        out, cut = inj.transit(b"AAAAAAAA")
        assert out == [] and cut is False
        out, cut = inj.transit(b"BBBBBBBB")
        assert out == [] and cut is True  # held frame died with the link

    def test_direction_filter(self):
        plan = FaultPlan(1)
        plan.rule(PARTITION, probability=1.0, direction="s2c")
        inj = LinkFaultInjector(plan, "c2s")
        out, cut = inj.transit(REQ_FRAME)
        assert out == [REQ_FRAME] and cut is False

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(PARTITION, direction="sideways")

    def test_every_injection_lands_in_the_plan_log(self):
        plan = FaultPlan(1)
        plan.rule(PARTITION, probability=1.0, max_fires=1, name="cutter")
        inj = LinkFaultInjector(plan, "c2s")
        inj.transit(REQ_FRAME)
        assert [f.kind for f in plan.log] == [PARTITION]
        assert plan.log[0].target == "link:c2s"
        assert plan.counts[PARTITION] == 1


# ---------------------------------------------------------------------------
# Seeded mixed chaos: heal everything, replay bit-identically
# ---------------------------------------------------------------------------


def chaos_plan(seed):
    plan = FaultPlan(seed)
    plan.rule(PARTITION, probability=0.01, arm_after=10, name="part")
    plan.rule(LAG, probability=0.02, lag=2, direction="s2c", name="lag")
    plan.rule(REORDER, probability=0.02, name="reorder")
    plan.rule(CORRUPT, probability=0.005, name="corrupt")
    plan.rule(DUPLICATE, probability=0.02, name="dup")
    return plan


def chaos_run(seed, steps=250):
    server = XServer()
    host = FramedHost(server, ResilienceConfig(seed=seed, park_grace=60.0))
    plan = chaos_plan(seed)
    conn, transport = connect(server, host, plan)
    wid = conn.create_window(conn.root_window(), 0, 0, 60, 40)
    conn.select_input(wid, EventMask.StructureNotify)
    conn.map_window(wid)
    rng = random.Random(seed ^ 0x5EED)
    observed = []
    for step in range(steps):
        x = rng.randint(0, 500)
        conn.move_window(wid, x, 0)
        if step % 10 == 0:
            host.heartbeat_tick()
        for event in conn.events():
            observed.append((type(event).__name__, getattr(event, "x", None)))
    assert conn.window_exists(wid) is True
    assert host.errors == []
    faults = [(f.serial, f.kind, f.target, f.detail) for f in plan.log]
    return {
        "reconnects": transport.reconnects,
        "delays": list(transport.delays),
        "faults": faults,
        "observed": observed,
        "lost": framed(server, "sessions_lost"),
    }


class TestSeededChaos:
    def test_mixed_faults_all_heal(self, wire_seed):
        result = chaos_run(wire_seed)
        assert result["faults"], "plan injected nothing — rules miswired"
        assert result["lost"] == 0
        assert result["reconnects"] >= 1

    def test_same_seed_replays_bit_identically(self, wire_seed):
        first = chaos_run(wire_seed)
        second = chaos_run(wire_seed)
        assert first == second


# ---------------------------------------------------------------------------
# Quota accounting across park / resume / session loss
# ---------------------------------------------------------------------------


class TestQuotaAccounting:
    """The quota ledger and the resilience layer must agree: a parked
    (link-lost) client's charges survive park -> resume intact, and a
    true SessionLost refunds everything through the ordinary close
    path's save-set rescue."""

    def charged_setup(self, server, **overrides):
        host = make_host(server, **overrides)
        conn, transport = connect(server, host)
        wids = [
            conn.create_window(conn.root_window(), 10 * i, 0, 60, 40)
            for i in range(3)
        ]
        for wid in wids:
            conn.map_window(wid)
        conn.set_string_property(wids[0], "WM_NAME", "quota-probe" * 8)
        return host, conn, transport, wids

    def test_charges_survive_park_and_resume(self, server):
        from repro.testing import quota_problems

        host, conn, transport, wids = self.charged_setup(server)
        cid = conn.client_id
        windows_before = server.quotas.windows[cid]
        bytes_before = server.quotas.prop_bytes[cid]
        assert windows_before == len(wids)
        assert bytes_before > 0

        transport._link.cut()
        # Parked, not closed: the estate stays registered and charged —
        # a flapping link must not be a quota-reset primitive.
        assert server.clients[cid].parked is True
        assert server.quotas.windows[cid] == windows_before
        assert server.quotas.prop_bytes[cid] == bytes_before
        assert quota_problems(server) == []

        # Resume; the charges carry over (no refund, no double-charge).
        assert conn.window_exists(wids[0]) is True
        assert transport.reconnects == 1
        assert server.quotas.windows[cid] == windows_before
        assert server.quotas.prop_bytes[cid] == bytes_before

        # New work charges on top of the preserved base.
        extra = conn.create_window(conn.root_window(), 0, 50, 30, 30)
        assert server.quotas.windows[cid] == windows_before + 1
        conn.destroy_window(extra)
        assert server.quotas.windows[cid] == windows_before
        assert quota_problems(server) == []

    def test_session_lost_refunds_every_charge(self, server):
        from repro.testing import quota_problems

        host, conn, transport, wids = self.charged_setup(
            server, park_grace=30.0
        )
        cid = conn.client_id
        assert server.quotas.windows[cid] == len(wids)
        assert server.quotas.prop_bytes[cid] > 0

        transport._link.cut()
        host.advance(31.0)  # grace expires: save-set rescue runs
        assert framed(server, "park_expired") == 1
        assert cid not in server.clients
        # Full refund: no window or byte charge outlives the client.
        assert server.quotas.windows[cid] == 0
        assert server.quotas.prop_bytes[cid] == 0
        assert quota_problems(server) == []
        with pytest.raises(SessionLost):
            conn.intern_atom("GONE")
        assert host.errors == []
