"""EventPipeline: coalescing semantics, stats instrumentation, and the
client queue contracts (handler snapshot safety, flush order)."""

from collections import deque

import pytest

import repro.xserver.events as ev
from repro.core.wm import Swm
from repro.xserver import (
    ClientConnection,
    EventMask,
    EventPipeline,
    QuotaExceeded,
    QuotaLimits,
    ServerStats,
    XError,
    XServer,
)
from repro.xserver.faults import DROP as FAULT_DROP, ERROR, FaultPlan
from repro.xserver.pipeline import APPEND, COALESCE
from repro.xserver.wire.resilience import FramedHost, FramedTransport


@pytest.fixture
def server():
    return XServer(screens=[(1000, 800, 8)])


@pytest.fixture
def conn(server):
    return ClientConnection(server, "app")


def mapped_window(conn, parent=None, x=0, y=0, w=100, h=100, **kwargs):
    parent = parent if parent is not None else conn.root_window()
    wid = conn.create_window(parent, x, y, w, h, **kwargs)
    conn.map_window(wid)
    conn.events()
    return wid


class TestCoalescingStage:
    """Coalescing on a bare pipeline: events delivered straight to a
    queue, no window or event selection involved."""

    def pipeline(self):
        return EventPipeline(XServer(screens=[(1000, 800, 8)]), client_id=0)

    def test_motion_burst_collapses_to_latest(self):
        pipe, queue = self.pipeline(), deque()
        for i in range(10):
            pipe.deliver(ev.MotionNotify(window=7, x_root=i, y_root=i), queue)
        assert len(queue) == 1
        assert (queue[0].x_root, queue[0].y_root) == (9, 9)

    def test_no_coalescing_across_windows(self):
        pipe, queue = self.pipeline(), deque()
        pipe.deliver(ev.MotionNotify(window=7, x_root=1), queue)
        pipe.deliver(ev.MotionNotify(window=8, x_root=2), queue)
        pipe.deliver(ev.MotionNotify(window=7, x_root=3), queue)
        assert [e.window for e in queue] == [7, 8, 7]

    def test_only_consecutive_runs_compress(self):
        # An intervening non-coalescable event breaks the run; relative
        # order of retained events is preserved.
        pipe, queue = self.pipeline(), deque()
        pipe.deliver(ev.MotionNotify(window=7, x_root=1), queue)
        pipe.deliver(ev.MotionNotify(window=7, x_root=2), queue)
        pipe.deliver(ev.ButtonPress(window=7), queue)
        pipe.deliver(ev.MotionNotify(window=7, x_root=3), queue)
        kinds = [type(e).__name__ for e in queue]
        assert kinds == ["MotionNotify", "ButtonPress", "MotionNotify"]
        assert queue[0].x_root == 2 and queue[2].x_root == 3

    def test_configure_notify_requires_both_windows_equal(self):
        pipe, queue = self.pipeline(), deque()
        pipe.deliver(ev.ConfigureNotify(window=1, configured_window=5), queue)
        pipe.deliver(ev.ConfigureNotify(window=1, configured_window=5, x=9), queue)
        assert len(queue) == 1 and queue[0].x == 9
        pipe.deliver(ev.ConfigureNotify(window=1, configured_window=6), queue)
        assert len(queue) == 2

    def test_expose_coalesces_per_window(self):
        pipe, queue = self.pipeline(), deque()
        pipe.deliver(ev.Expose(window=3, width=10), queue)
        pipe.deliver(ev.Expose(window=3, width=20), queue)
        pipe.deliver(ev.Expose(window=4, width=30), queue)
        assert [(e.window, e.width) for e in queue] == [(3, 20), (4, 30)]

    def test_button_press_never_coalesces(self):
        pipe, queue = self.pipeline(), deque()
        pipe.deliver(ev.ButtonPress(window=7), queue)
        pipe.deliver(ev.ButtonPress(window=7), queue)
        assert len(queue) == 2

    def test_disabled_stage_appends_everything(self):
        pipe, queue = self.pipeline(), deque()
        pipe.coalescing = False
        pipe.deliver(ev.MotionNotify(window=7, x_root=1), queue)
        pipe.deliver(ev.MotionNotify(window=7, x_root=2), queue)
        assert len(queue) == 2

    def test_deliver_reports_outcome(self):
        pipe, queue = self.pipeline(), deque()
        assert pipe.deliver(ev.MotionNotify(window=7), queue) == APPEND
        assert pipe.deliver(ev.MotionNotify(window=7), queue) == COALESCE


class TestStageOrder:
    """The delivery order — faults, coalescing, backpressure,
    instrumentation — pinned by what each client sees and what the
    counters read, through a real server."""

    LIMITS = QuotaLimits(high_water=4, low_water=1, hard_cap=8,
                         coalesce_scan=8)

    def client(self, coalesce=True):
        server = XServer(screens=[(1000, 800, 8)], quota_limits=self.LIMITS)
        app = ClientConnection(server, "app", coalesce=coalesce)
        wid = app.create_window(
            app.root_window(), 0, 0, 100, 100, event_mask=EventMask.Exposure
        )
        app.map_window(wid)
        app.events()
        server.stats().reset()

        def send(*events):
            for event in events:
                app.send_event(wid, event, EventMask.Exposure)

        return server, app, wid, send

    def fill(self, wid, count):
        return [
            ev.ClientMessage(window=wid, message_type=1, data=(i,))
            for i in range(count)
        ]

    def test_fault_drop_leaves_coalescible_tail_untouched(self):
        # A fault drop is decided first: coalescing never sees the
        # event, so the queued motion keeps its coordinates.
        server, app, wid, send = self.client()
        send(ev.MotionNotify(window=wid, x_root=1))
        plan = FaultPlan(seed=1)
        plan.rule(FAULT_DROP, events=["MotionNotify"])
        server.install_faults(plan)
        send(ev.MotionNotify(window=wid, x_root=2))
        stats = server.stats()
        assert [e.x_root for e in app.events()] == [1]
        assert stats.get("dropped", type="MotionNotify") == 1
        assert stats.get("injected", kind=FAULT_DROP) == 1
        assert stats.get("coalesced") == 0

    def test_tail_coalescing_precedes_backpressure(self):
        # Past high water, an event the tail absorbs is plain
        # coalescing: backpressure never force-coalesces or sheds it.
        server, app, wid, send = self.client()
        send(*self.fill(wid, 3))
        send(ev.Expose(window=wid, width=1))  # reaches high water
        send(ev.Expose(window=wid, width=2))
        stats = server.stats()
        assert app.pending() == 4
        assert stats.get("coalesced", type="Expose") == 1
        assert stats.get("force_coalesced") == 0
        assert stats.get("shed") == 0

    def test_overflow_shed_counts_as_dropped(self):
        # Backpressure decides before instrumentation, so a shed event
        # is counted in both the shed and the dropped series.
        server, app, wid, send = self.client()
        send(*self.fill(wid, 4))
        send(ev.MotionNotify(window=wid, x_root=1))
        stats = server.stats()
        assert app.pending() == 4
        assert stats.get("shed", type="MotionNotify", reason="overflow") == 1
        assert stats.get("dropped", type="MotionNotify") == 1
        assert stats.get("delivered", type="MotionNotify") == 0

    def test_uncoalesced_repeat_reaches_backpressure(self):
        # With coalescing off, a repeated motion is left for
        # backpressure, which force-coalesces it past high water.
        server, app, wid, send = self.client(coalesce=False)
        send(*self.fill(wid, 3))
        send(ev.MotionNotify(window=wid, x_root=1))  # reaches high water
        send(ev.MotionNotify(window=wid, x_root=2))
        stats = server.stats()
        assert [getattr(e, "x_root", None) for e in app.events()] == [
            None, None, None, 2
        ]
        assert stats.get("force_coalesced", type="MotionNotify") == 1
        assert stats.get("coalesced", type="MotionNotify") == 1
        assert stats.get("shed") == 0


class TestServerStats:
    def test_delivered_counts_match_drained_events(self, server, conn):
        wid = mapped_window(conn, event_mask=EventMask.PointerMotion)
        for i in range(5):
            server.motion(10 + i, 10)
        motions = conn.flush_events(ev.MotionNotify)
        stats = server.stats()
        # Coalescing on: the client drains exactly what was counted as
        # delivered; the rest was counted as coalesced.
        motion = dict(type="MotionNotify", client=conn.client_id)
        assert len(motions) == stats.get("delivered", **motion)
        assert (
            stats.get("delivered", **motion) + stats.get("coalesced", **motion)
            == 5
        )

    def test_uncoalesced_client_delivers_raw_count(self, server):
        conn = ClientConnection(server, "raw", coalesce=False)
        mapped_window(conn, event_mask=EventMask.PointerMotion)
        server.stats().reset()
        for i in range(5):
            server.motion(20 + i, 20)
        motions = conn.flush_events(ev.MotionNotify)
        assert len(motions) == 5
        assert server.stats().get(
            "delivered", type="MotionNotify", client=conn.client_id
        ) == 5
        assert server.stats().get("coalesced", client=conn.client_id) == 0

    def test_request_counters(self, server, conn):
        before = server.stats().get("requests", name="create_window")
        conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.create_window(conn.root_window(), 0, 0, 10, 10)
        assert (
            server.stats().get("requests", name="create_window") == before + 2
        )
        assert server.stats().get("requests") >= before + 2

    def test_snapshot_is_plain_data(self, server, conn):
        mapped_window(conn, event_mask=EventMask.PointerMotion)
        server.motion(5, 5)
        snap = server.stats().snapshot()
        assert isinstance(snap, dict)
        assert "requests" in snap and "delivered" in snap

    def test_snapshot_layout(self, tmp_path):
        """Every counter series driven once through the real server,
        then the whole snapshot (bar the cache and trace sections)
        pinned: perfbench signatures and the soak summary read it."""
        server = XServer(
            screens=[(1000, 800, 8)],
            quota_limits=QuotaLimits(
                max_windows=3, soft_fraction=0.5, high_water=4,
                low_water=1, hard_cap=8, coalesce_scan=8,
                grab_tick_budget=1,
            ),
        )
        wm = Swm(server, places_path=str(tmp_path / "swm.places"))
        server.stats().reset()
        wm.guarded(wm.conn.map_window, 0x7FFFFFF)  # guarded BadWindow
        wm.conn.close()
        app = ClientConnection(server, "app")
        root = app.root_window()
        under = app.create_window(
            root, 0, 0, 100, 100, event_mask=EventMask.Exposure
        )
        over = app.create_window(root, 50, 50, 100, 100)
        app.map_window(over)
        app.map_window(under)  # partly covered: two damage rects
        with app.batch():
            app.move_window(over, 200, 200)
            app.move_window(over, 300, 300)  # batch-coalesced
        with pytest.raises(QuotaExceeded):
            app.create_window(root, 0, 0, 10, 10)  # soft warnings...
            app.create_window(root, 0, 0, 10, 10)  # ...then a denial
        app.events()

        def send(event):
            app.send_event(under, event, EventMask.Exposure)

        def fill(count):
            for i in range(count):
                send(ev.ClientMessage(window=under, message_type=1,
                                      data=(i,)))

        send(ev.Expose(window=under, width=1))
        send(ev.Expose(window=under, width=2))  # coalesced
        fill(3)
        send(ev.Expose(window=under, width=3))  # force-coalesced
        send(ev.MotionNotify(window=under, x_root=1))  # shed: overflow
        fill(5)  # the last one hits the cap: shed and throttled
        fill(1)  # shed while throttled
        while app.pending() > 1:
            app.next_event()  # drained below low water: unthrottled
        app.events()
        app.grab_pointer(under, EventMask.PointerMotion)
        for _ in range(3):
            server.housekeeping_tick()  # grab broken: not draining
        plan = FaultPlan(seed=1)
        plan.rule(ERROR, requests=["change_property"], max_fires=1)
        server.install_faults(plan)
        with pytest.raises(XError):
            app.change_property(under, 1, 1, 8, b"x")  # injected
        wired = ClientConnection(
            name="wired", transport=FramedTransport(FramedHost(server))
        )
        wired.intern_atom("WIRED")

        snap = server.stats().snapshot()
        del snap["caches"], snap["trace"]
        cid = app.client_id
        assert snap == {
            "requests": {
                "change_property": 1, "configure_window": 2,
                "create_window": 4, "grab_pointer": 1, "map_window": 3,
                "send_event": 13,
            },
            "delivered": {"ClientMessage": 7, "Expose": 2},
            "coalesced": {"Expose": 3},
            "delivered_by_client": {cid: {"ClientMessage": 7, "Expose": 2}},
            "coalesced_by_client": {cid: {"Expose": 3}},
            "dropped": {"ClientMessage": 2, "MotionNotify": 1},
            "injected_faults": {"error": 1},
            "guarded_errors": {"BadWindow": 1},
            "quotas": {
                "denials": {cid: {"windows": 1}},
                "warnings": {cid: {"windows": 2}},
                "shed": {"ClientMessage": 2, "MotionNotify": 1},
                "shed_by_client": {
                    cid: {"ClientMessage": 2, "MotionNotify": 1}
                },
                "shed_reasons": {"capped": 1, "overflow": 1, "throttled": 1},
                "force_coalesced": {"Expose": 1},
                "throttles": {cid: 1},
                "unthrottles": {cid: 1},
                "grabs_broken": {"not-draining": 1},
            },
            "wire": {
                "framed": {
                    "bytes_in": 54, "bytes_out": 138,
                    "frames_in": 2, "frames_out": 2,
                },
            },
            "batch": {"batched": 2, "coalesced": 1, "damage_rects": 2},
        }

    def test_get_sums_over_labels_not_given(self):
        stats = ServerStats()
        stats.inc("shed", 1, "MotionNotify", "overflow")
        stats.inc("shed", 2, "MotionNotify", "capped", n=2)
        stats.inc("shed", 2, "Expose", "overflow")
        assert stats.get("shed") == 4
        assert stats.get("shed", type="MotionNotify") == 3
        assert stats.get("shed", client=2, reason="capped") == 2
        assert stats.get(
            "shed", client=2, type="Expose", reason="overflow"
        ) == 1
        assert stats.get("shed", client=3) == 0

    def test_get_refuses_unknown_names(self, server):
        stats = server.stats()
        with pytest.raises(KeyError, match="grab_broken"):
            stats.get("grab_broken")  # the series is grabs_broken
        with pytest.raises(KeyError, match="transprt"):
            stats.get("wire", transprt="tcp")
        with pytest.raises(KeyError, match="client"):
            stats.get("batched", client=1)
        # Label values stay open: transports appear at run time.
        assert stats.get("wire", transport="serial") == 0


class TestClientQueueContracts:
    def test_flush_events_preserves_relative_order(self, server, conn):
        """flush_events(of_type=...) keeps retained events oldest-first
        in delivery order (regression guard for the drain contract)."""
        wid = mapped_window(
            conn,
            event_mask=EventMask.ButtonPress
            | EventMask.ButtonRelease
            | EventMask.PointerMotion,
        )
        server.motion(10, 10)
        server.button_press(1)
        server.button_release(1)
        server.button_press(2)
        server.button_release(2)
        presses = conn.flush_events(ev.ButtonPress)
        assert [e.button for e in presses] == [1, 2]
        assert [e.serial for e in presses] == sorted(e.serial for e in presses)

    def test_handler_removing_itself_does_not_skip_others(self, server, conn):
        """queue_event iterates a snapshot of event_handlers: a handler
        that unsubscribes itself must not cause later handlers to be
        skipped for the same event."""
        seen = []

        def one_shot(event):
            seen.append(("one_shot", type(event).__name__))
            conn.event_handlers.remove(one_shot)

        def steady(event):
            seen.append(("steady", type(event).__name__))

        mapped_window(conn, event_mask=EventMask.ButtonPress)
        conn.event_handlers.extend([one_shot, steady])
        server.motion(10, 10)
        server.button_press(1)
        server.button_release(1)
        assert ("one_shot", "ButtonPress") in seen
        assert ("steady", "ButtonPress") in seen
        # The one-shot really unsubscribed: a second press only reaches
        # the steady handler.
        count_before = len(seen)
        server.button_press(1)
        server.button_release(1)
        new = seen[count_before:]
        assert ("steady", "ButtonPress") in new
        assert all(name != "one_shot" for name, _ in new)
