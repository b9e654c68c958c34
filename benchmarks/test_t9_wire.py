"""T9 — wire transport overhead: loopback stays free, TCP stays real.

Not a paper claim: a regression guard for this repo's wire layer (see
``repro.xserver.wire``).  The transport refactor split
``ClientConnection`` into a proxy + server-side record joined by a
``Transport``; the promise is two-sided:

- **loopback is (near-)free** — the default ``LoopbackTransport``
  dispatches straight into the server with no serialization, so the
  proxy indirection must not change delivery behaviour at all
  (counter-level guard) and must stay within noise of the direct-call
  cost on a request-heavy workload (timing case);
- **the codec and TCP path are fast enough to be usable** — codec
  round-trip throughput is benchmarked on a realistic request/event
  mix, and a full socket round-trip case pins the end-to-end cost of
  ``TcpTransport`` against one live ``WireServer`` (this one measures
  syscalls + framing + codec together, so it is the number to watch
  when touching any wire file).

Counter-level guards are plain asserts and run under
``--benchmark-disable`` too; timing cases use pytest-benchmark
(group ``t9``).
"""

import pytest

from repro.xserver import ClientConnection, EventMask
from repro.xserver import events as ev
from repro.xserver.wire import (
    ResilienceConfig,
    TcpTransport,
    WireServer,
    decode_event,
    decode_request,
    decode_value,
    encode_event,
    encode_request,
    encode_value,
)

from .conftest import fresh_server, report

REQUESTS = 2000  # request round-trips per measured run


def request_workload(conn, root, n=REQUESTS):
    """A request-heavy client session: create/configure/property/query
    in the proportions a WM session actually issues."""
    wid = conn.create_window(root, 10, 10, 200, 150)
    conn.select_input(wid, EventMask.StructureNotify)
    conn.map_window(wid)
    for i in range(n // 4):
        conn.configure_window(wid, x=i % 300, y=i % 200)
        conn.set_string_property(wid, "WM_NAME", f"t9-{i}")
        conn.get_geometry(wid)
        conn.query_tree(root)
    conn.flush_events()
    return wid


# -- counter-level guards (always run) ----------------------------------------


def test_t9_loopback_proxy_changes_nothing():
    """The proxy + record split must deliver exactly what the old
    monolithic connection did: every event queued by the server lands
    in the client's queue, no drops, no containment activity, and the
    request count on the server matches what the proxy issued."""
    server = fresh_server()
    conn = ClientConnection(server, "t9", coalesce=False)
    root = conn.root_window()
    before = server.stats().get("requests")
    request_workload(conn, root)
    issued = server.stats().get("requests") - before
    record = server.clients[conn.client_id]
    report(
        "T9: loopback proxy is transparent",
        [f"requests issued: {issued}", "shared queue: "
         f"{record._queue is conn._queue}"],
    )
    assert record._queue is conn._queue  # zero-copy event path
    # Every mutating proxy call reached the server's accounting (the
    # read-only queries deliberately skip count_request).
    stats = server.stats()
    assert stats.get("requests", name="configure_window") >= REQUESTS // 4
    assert stats.get("requests", name="change_property") >= REQUESTS // 4
    assert stats.get("shed") == 0
    assert stats.get("dropped") == 0


def test_t9_codec_round_trip_is_exact_on_the_hot_mix():
    """The codec guard the timing case rides on: the request/event mix
    used for throughput numbers round-trips exactly."""
    requests = [
        ("configure_window", (7, 3), {"x": 10, "y": 20}),
        ("change_property", (7, 39, "x" * 64, 31, 8, 0), {}),
        ("get_geometry", (7,), {}),
        ("query_tree", (1,), {}),
    ]
    for name, args, kwargs in requests:
        opcode, payload = encode_request(name, args, kwargs)
        assert decode_request(opcode, payload) == (name, args, kwargs)
    event = ev.MotionNotify(window=7, x=3, y=4, x_root=3, y_root=4)
    opcode, payload = encode_event(event)
    back = decode_event(payload)
    assert back == event and back.serial == event.serial


def test_t9_tcp_counters_balance():
    """One real-socket session: every frame the client sent arrived,
    every reply was framed, and byte counters are non-trivial."""
    server = fresh_server()
    with WireServer(server) as ws:
        conn = ClientConnection(
            name="t9-tcp", transport=TcpTransport(port=ws.port)
        )
        request_workload(conn, conn.root_window(), n=200)
        conn.close()
        stats = ws.call(lambda: server.stats().snapshot())["wire"]["tcp"]
        assert ws.errors == []
    report("T9: tcp counter balance", [str(stats)])
    assert stats["frames_in"] >= 200
    # Every request got exactly one reply (plus the WELCOME and events).
    assert stats["frames_out"] >= stats["frames_in"]
    assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0
    assert "protocol_errors" not in stats


def resilient_session(n=200):
    """One TCP session with the full resilience stack armed (heartbeats,
    session table, sequence numbering) but zero faults injected."""
    server = fresh_server()
    ws = WireServer(server, resilience=ResilienceConfig(seed=1))
    with ws:
        transport = TcpTransport(
            port=ws.port, resilience=ResilienceConfig(seed=2)
        )
        conn = ClientConnection(name="t9-res", transport=transport)
        request_workload(conn, conn.root_window(), n=n)
        stats = ws.call(lambda: server.stats().snapshot())["wire"]["tcp"]
        conn.close()
        assert ws.errors == []
    return transport, stats


def test_t9_resilience_is_invisible_when_the_link_is_healthy():
    """Fault-free counter guard: with heartbeats and resumption armed
    but the link healthy, the resilience layer must be pure bookkeeping
    — no reconnects, no parks, no replays, no recovery traffic."""
    transport, stats = resilient_session()
    report(
        "T9: fault-free resilient session",
        [f"reconnects: {transport.reconnects}",
         f"wire stats: {stats}"],
    )
    assert transport.reconnects == 0
    assert transport.delays == []
    for key in ("parked", "resumed", "replayed_events", "sessions_lost",
                "peers_reaped", "protocol_errors"):
        assert key not in stats, f"unexpected {key} on a healthy link"


# -- timing cases (pytest-benchmark, group t9) --------------------------------


@pytest.mark.benchmark(group="t9")
def test_t9_loopback_request_throughput(benchmark):
    """Request round-trips per second through the proxy + loopback
    transport — the refactor's overhead on the old direct path."""
    server = fresh_server()
    conn = ClientConnection(server, "t9", coalesce=False)
    root = conn.root_window()
    request_workload(conn, root, n=200)  # warm caches
    benchmark(request_workload, conn, root)


@pytest.mark.benchmark(group="t9")
def test_t9_codec_throughput(benchmark):
    """Encode+decode throughput on a realistic request/event mix."""
    event = ev.MotionNotify(window=7, x=3, y=4, x_root=3, y_root=4)
    reply = {"x": 10, "y": 20, "width": 200, "height": 150, "mapped": True}

    def round_trips():
        for i in range(REQUESTS):
            opcode, payload = encode_request(
                "configure_window", (7, 3), {"x": i % 300, "y": i % 200}
            )
            decode_request(opcode, payload)
            opcode, payload = encode_event(event)
            decode_event(payload)
            blob = encode_value(reply)
            decode_value(blob)

    benchmark(round_trips)


@pytest.mark.benchmark(group="t9")
def test_t9_tcp_round_trip_throughput(benchmark):
    """End-to-end request round-trips over a real socket: framing,
    codec, syscalls, the asyncio loop and the resilience bookkeeping
    (heartbeats, session token, event sequence numbers), all in one
    number."""
    server = fresh_server()
    with WireServer(server) as ws:
        conn = ClientConnection(
            name="t9-tcp", transport=TcpTransport(port=ws.port)
        )
        root = conn.root_window()
        wid = conn.create_window(root, 0, 0, 100, 100)

        def round_trips():
            for i in range(200):
                conn.get_geometry(wid)

        round_trips()  # warm up
        benchmark(round_trips)
        conn.close()
        assert ws.errors == []
