"""Per-client quotas, backpressure, and the grab watchdog.

These are the containment unit tests: each exercises one layer of the
adversarial-client defences with a deliberately tight
:class:`QuotaLimits`, independent of the fuzz suite (which drives all
layers at once under a seeded hostile workload).
"""

import pytest

import repro.xserver.events as ev
from repro.testing import assert_quotas_enforced, quota_problems
from repro.xserver import (
    BadValue,
    ClientConnection,
    ConnectionClosed,
    EventMask,
    QueueEmpty,
    QuotaExceeded,
    QuotaLimits,
    XError,
    XServer,
)
from repro.xserver.quotas import property_bytes


def make_server(**limits) -> XServer:
    return XServer(
        screens=[(1000, 800, 8)], quota_limits=QuotaLimits(**limits)
    )


@pytest.fixture
def server():
    return XServer(screens=[(1000, 800, 8)])


@pytest.fixture
def conn(server):
    return ClientConnection(server, "app")


class TestWindowQuota:
    def test_denied_past_limit_offender_only(self):
        server = make_server(max_windows=3)
        evil = ClientConnection(server, "evil")
        bystander = ClientConnection(server, "bystander")
        root = evil.root_window()
        wids = [evil.create_window(root, 0, 0, 10, 10) for _ in range(3)]
        with pytest.raises(QuotaExceeded):
            evil.create_window(root, 0, 0, 10, 10)
        # The quota is per client: the bystander is unaffected.
        bystander.create_window(root, 0, 0, 10, 10)
        assert server.stats().get(
            "quota_denials", client=evil.client_id, kind="windows"
        ) == 1
        assert server.stats().get(
            "quota_denials", client=bystander.client_id
        ) == 0
        # Destroying a window refunds budget.
        evil.destroy_window(wids[0])
        evil.create_window(root, 0, 0, 10, 10)
        assert_quotas_enforced(server)

    def test_quota_exceeded_is_badalloc(self):
        server = make_server(max_windows=1)
        conn = ClientConnection(server, "app")
        conn.create_window(conn.root_window(), 0, 0, 10, 10)
        # Existing degradation paths catch XError; QuotaExceeded must
        # flow through them unchanged.
        with pytest.raises(XError) as exc:
            conn.create_window(conn.root_window(), 0, 0, 10, 10)
        assert exc.value.name == "QuotaExceeded"

    def test_destroying_parent_refunds_subtree(self):
        server = make_server(max_windows=4)
        conn = ClientConnection(server, "app")
        top = conn.create_window(conn.root_window(), 0, 0, 100, 100)
        for _ in range(3):
            conn.create_window(top, 0, 0, 10, 10)
        with pytest.raises(QuotaExceeded):
            conn.create_window(top, 0, 0, 10, 10)
        conn.destroy_window(top)  # destroys the children too
        assert server.quotas.windows.get(conn.client_id, 0) == 0
        assert_quotas_enforced(server)

    def test_soft_warning_band_counts_without_denying(self):
        server = make_server(max_windows=10, soft_fraction=0.5)
        conn = ClientConnection(server, "app")
        for _ in range(8):
            conn.create_window(conn.root_window(), 0, 0, 10, 10)
        assert server.stats().get(
            "quota_warnings", client=conn.client_id, kind="windows"
        ) == 3  # windows 6..8 are past the 50% band
        assert server.stats().get("quota_denials", client=conn.client_id) == 0


class TestPropertyQuota:
    def test_denied_before_mutation(self):
        server = make_server(max_property_bytes=100)
        conn = ClientConnection(server, "app")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.set_string_property(wid, "A", "x" * 60)
        with pytest.raises(QuotaExceeded):
            conn.set_string_property(wid, "B", "y" * 60)
        # The denied change really mutated nothing.
        assert conn.get_property(wid, "B") is None
        assert_quotas_enforced(server)

    def test_replace_and_delete_refund(self):
        server = make_server(max_property_bytes=100)
        conn = ClientConnection(server, "app")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.set_string_property(wid, "A", "x" * 90)
        conn.set_string_property(wid, "A", "x" * 10)  # replace shrinks
        conn.set_string_property(wid, "B", "y" * 80)  # fits after refund
        conn.delete_property(wid, "B")
        assert server.quotas.prop_bytes.get(conn.client_id, 0) == 10
        assert_quotas_enforced(server)

    def test_append_accumulates(self):
        from repro.xserver.properties import PROP_MODE_APPEND

        server = make_server(max_property_bytes=100)
        conn = ClientConnection(server, "app")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.change_property(wid, "A", "STRING", 8, "x" * 60)
        with pytest.raises(QuotaExceeded):
            conn.change_property(
                wid, "A", "STRING", 8, "y" * 60, PROP_MODE_APPEND
            )
        assert_quotas_enforced(server)

    def test_charge_follows_acting_client(self):
        # B overwriting a property on A's window adopts the charge: A's
        # budget is refunded, B's is charged.
        server = make_server(max_property_bytes=100)
        a = ClientConnection(server, "a")
        b = ClientConnection(server, "b")
        wid = a.create_window(a.root_window(), 0, 0, 10, 10)
        a.set_string_property(wid, "A", "x" * 40)
        b.set_string_property(wid, "A", "y" * 70)
        assert server.quotas.prop_bytes.get(a.client_id, 0) == 0
        assert server.quotas.prop_bytes.get(b.client_id, 0) == 70
        assert_quotas_enforced(server)

    def test_rejected_change_charges_nothing(self):
        server = make_server(max_property_bytes=100)
        conn = ClientConnection(server, "app")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        with pytest.raises(BadValue):
            conn.change_property(wid, "A", "STRING", 12, "x")  # bad format
        assert server.quotas.prop_bytes.get(conn.client_id, 0) == 0
        assert_quotas_enforced(server)

    def test_property_bytes_wire_sizes(self):
        assert property_bytes(8, "abcd") == 4
        assert property_bytes(16, [1, 2, 3]) == 6
        assert property_bytes(32, [1, 2, 3]) == 12


class TestGrabAndRateQuota:
    def test_grab_quota_denies_offender(self):
        server = make_server(max_pending_grabs=2)
        conn = ClientConnection(server, "app")
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.grab_button(wid, 1, 0, EventMask.ButtonPress)
        conn.grab_key(wid, "a", 0)
        with pytest.raises(QuotaExceeded):
            conn.grab_button(wid, 2, 0, EventMask.ButtonPress)
        # Releasing one grab restores headroom (lazy recount, no
        # refund bookkeeping to drift).
        conn.ungrab_button(wid, 1, 0)
        conn.grab_button(wid, 2, 0, EventMask.ButtonPress)
        assert_quotas_enforced(server)

    def test_request_rate_window_resets_each_tick(self):
        server = make_server(max_requests_per_tick=5)
        conn = ClientConnection(server, "app")
        root = conn.root_window()
        for _ in range(5):
            conn.window_exists(root)  # queries carry no client_id: free
        wids = [conn.create_window(root, 0, 0, 10, 10) for _ in range(5)]
        with pytest.raises(QuotaExceeded):
            conn.map_window(wids[0])
        server.housekeeping_tick()  # new rate window
        conn.map_window(wids[0])
        assert server.stats().get(
            "quota_denials", client=conn.client_id, kind="requests"
        ) == 1


def fill_queue(victim, wid, count):
    """Append *count* structural (never-coalescing) events to the
    victim's queue via SendEvent."""
    for i in range(count):
        victim.send_event(
            wid,
            ev.ClientMessage(window=wid, message_type=1, data=(i,)),
            EventMask.Exposure,
        )


class TestBackpressure:
    def limits(self):
        return dict(high_water=4, low_water=1, hard_cap=8, coalesce_scan=8)

    def victim(self, server):
        conn = ClientConnection(server, "victim", coalesce=False)
        wid = conn.create_window(conn.root_window(), 0, 0, 100, 100)
        conn.select_input(wid, EventMask.Exposure)
        return conn, wid

    def test_force_coalesce_past_high_water(self):
        server = make_server(**self.limits())
        conn, wid = self.victim(server)
        conn.set_coalescing(True)
        conn.send_event(
            wid, ev.Expose(window=wid, width=1), EventMask.Exposure
        )
        fill_queue(conn, wid, 4)  # queue: Expose + 4 ClientMessages
        assert conn.pending() == 5
        conn.send_event(
            wid, ev.Expose(window=wid, width=99), EventMask.Exposure
        )
        # Past high water the new Expose coalesced into the old one in
        # place — across the intervening ClientMessages.
        assert conn.pending() == 5
        events = conn.events()
        assert isinstance(events[0], ev.Expose) and events[0].width == 99
        snap = server.stats().snapshot()
        assert snap["quotas"]["force_coalesced"] == {"Expose": 1}

    def test_sheddable_dropped_structural_kept(self):
        server = make_server(**self.limits())
        conn, wid = self.victim(server)
        fill_queue(conn, wid, 5)
        conn.send_event(
            wid, ev.MotionNotify(window=wid, x_root=1), EventMask.Exposure
        )
        assert conn.pending() == 5  # motion shed
        fill_queue(conn, wid, 1)
        assert conn.pending() == 6  # structural still appends
        assert server.stats().get(
            "shed", type="MotionNotify", client=conn.client_id
        ) == 1
        # Sheds are a subset of drops (instrumentation sees them too).
        assert server.stats().get("dropped", client=conn.client_id) >= 1

    def test_hard_cap_throttles_until_drained(self):
        server = make_server(**self.limits())
        conn, wid = self.victim(server)
        fill_queue(conn, wid, 8)
        assert conn.pending() == 8
        fill_queue(conn, wid, 1)  # at the cap: throttled + shed
        assert conn.pending() == 8
        assert server.quotas.is_throttled(conn.client_id)
        assert server.stats().get("throttles", client=conn.client_id) == 1
        fill_queue(conn, wid, 3)  # everything shed while throttled
        assert conn.pending() == 8
        # Draining to the low-water mark lifts the throttle.
        while conn.pending() > 1:
            conn.next_event()
        assert not server.quotas.is_throttled(conn.client_id)
        fill_queue(conn, wid, 1)
        assert conn.pending() == 2
        snap = server.stats().snapshot()
        assert snap["quotas"]["shed_reasons"]["capped"] == 1
        assert snap["quotas"]["shed_reasons"]["throttled"] == 3
        assert snap["quotas"]["unthrottles"] == {conn.client_id: 1}
        assert_quotas_enforced(server)


class TestGrabWatchdog:
    def test_non_draining_holder_loses_grab(self):
        server = make_server(grab_tick_budget=3)
        holder = ClientConnection(server, "holder")
        wid = holder.create_window(holder.root_window(), 0, 0, 100, 100)
        holder.map_window(wid)
        holder.grab_pointer(wid, EventMask.PointerMotion)
        assert server.active_grab is not None
        for _ in range(3):
            server.housekeeping_tick()
        assert server.active_grab is not None  # within budget
        server.housekeeping_tick()
        assert server.active_grab is None
        assert server.stats().get("grabs_broken", reason="not-draining") == 1

    def test_draining_holder_keeps_grab(self):
        server = make_server(grab_tick_budget=3)
        holder = ClientConnection(server, "holder")
        wid = holder.create_window(holder.root_window(), 0, 0, 100, 100)
        holder.map_window(wid)
        holder.select_input(wid, EventMask.PointerMotion)
        holder.grab_pointer(wid, EventMask.PointerMotion)
        for i in range(10):
            server.motion(10 + i, 10)  # grab routes motion to holder
            holder.events()  # ...which keeps draining
            server.housekeeping_tick()
        assert server.active_grab is not None
        assert server.stats().get("grabs_broken") == 0

    def test_dead_holder_grab_broken(self):
        server = make_server(grab_tick_budget=3)
        holder = ClientConnection(server, "holder")
        wid = holder.create_window(holder.root_window(), 0, 0, 100, 100)
        holder.map_window(wid)
        holder.grab_pointer(wid, EventMask.PointerMotion)
        # Simulate a holder that vanished without any teardown path
        # running (close/abandon clear the grab themselves; the
        # watchdog is the backstop when neither ran).
        del server.clients[holder.client_id]
        server.housekeeping_tick()
        assert server.active_grab is None
        assert server.stats().get("grabs_broken", reason="dead-holder") == 1

    def test_throttled_client_passive_grabs_pruned(self):
        server = make_server(
            high_water=2, low_water=1, hard_cap=4, grab_tick_budget=2
        )
        jammed = ClientConnection(server, "jammed")
        wid = jammed.create_window(jammed.root_window(), 0, 0, 100, 100)
        jammed.select_input(wid, EventMask.Exposure)
        jammed.grab_button(wid, 1, 0, EventMask.ButtonPress)
        fill_queue(jammed, wid, 5)  # hard cap: throttled
        assert server.quotas.is_throttled(jammed.client_id)
        assert server.grabs.count_for_client(jammed.client_id) == 1
        for _ in range(3):
            server.housekeeping_tick()
        assert server.grabs.count_for_client(jammed.client_id) == 0
        assert server.stats().get(
            "grabs_broken", reason="passive-throttled"
        ) == 1


class TestConnectionContracts:
    def test_next_event_raises_queue_empty(self, conn):
        with pytest.raises(QueueEmpty):
            conn.next_event()
        # Backwards compatible with pre-existing IndexError handlers.
        with pytest.raises(IndexError):
            conn.next_event()

    def test_dead_connection_fails_fast(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        server.close_client(conn.client_id)
        with pytest.raises(ConnectionClosed):
            conn.create_window(conn.root_window(), 0, 0, 10, 10)
        with pytest.raises(ConnectionClosed):
            conn.map_window(wid)
        with pytest.raises(ConnectionClosed):
            conn.change_property(wid, "A", "STRING", 8, "x")
        # Local reads stay usable: teardown code inspects corpses.
        assert conn.events() == []
        assert conn.pending() == 0

    def test_stale_client_id_rejected_at_server(self, server, conn):
        """The server-side backstop: requests under an unregistered
        client id are refused even when they bypass ClientConnection."""
        dead_id = conn.client_id
        server.close_client(dead_id)
        with pytest.raises(ConnectionClosed):
            server.create_window(
                dead_id, 99999, server.root_of_screen(0).id, 0, 0, 10, 10
            )

    def test_flush_discards_count_as_dropped(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 100, 100)
        conn.select_input(wid, EventMask.Exposure)
        conn.map_window(wid)
        conn.events()  # discard the Expose the map generated
        before = server.stats().get("dropped", client=conn.client_id)
        fill_queue(conn, wid, 3)
        kept = conn.flush_events(ev.Expose)
        assert kept == []
        after = server.stats().get("dropped", client=conn.client_id)
        assert after - before >= 3


class TestQuotaOracle:
    def test_healthy_server_has_no_problems(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 100, 100)
        conn.map_window(wid)
        conn.set_string_property(wid, "WM_NAME", "hello")
        assert quota_problems(server) == []

    def test_oracle_detects_ledger_drift(self, server, conn):
        conn.create_window(conn.root_window(), 0, 0, 100, 100)
        server.quotas.windows[conn.client_id] += 5  # corrupt the ledger
        problems = quota_problems(server)
        assert any("window ledger" in p for p in problems)
        with pytest.raises(AssertionError):
            assert_quotas_enforced(server)
