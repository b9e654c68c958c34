"""Unit tests for the fault-injection layer itself.

Each fault kind is exercised against a bare server + client, then the
layer's contracts are pinned down: determinism (same seed, same
workload, same fault log), one-rule-per-request, suspension, and the
``server.stats()`` counters.
"""

import hashlib

import pytest

from repro.xserver import XServer
from repro.xserver.client import ClientConnection
from repro.xserver.errors import BadAccess, BadMatch, BadWindow
from repro.xserver.faults import (
    DELAY,
    DROP,
    ERROR,
    FLOOD,
    KILL,
    STALE,
    ConnectionClosed,
    FaultPlan,
    FaultRule,
)

from .test_chaos_link import run_scenario
from .test_chaos_wm import replay_workload


@pytest.fixture
def server():
    return XServer(screens=[(800, 600, 8)])


@pytest.fixture
def conn(server):
    return ClientConnection(server, "app")


def make_window(conn, mapped=True):
    wid = conn.create_window(conn.root_window(0), 10, 10, 100, 80)
    if mapped:
        conn.map_window(wid)
    return wid


class TestErrorFaults:
    def test_error_raises_named_error(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(ERROR, error="BadMatch", requests=("configure_window",))
        server.install_faults(plan)
        with pytest.raises(BadMatch):
            conn.configure_window(wid, x=50)
        assert plan.injected(ERROR) == 1
        assert server.stats().get("injected", kind=ERROR) == 1

    def test_error_leaves_state_untouched(self, server, conn):
        wid = make_window(conn, mapped=False)
        plan = FaultPlan(seed=7)
        plan.rule(ERROR, error="BadAccess", requests=("map_window",),
                  max_fires=1)
        server.install_faults(plan)
        with pytest.raises(BadAccess):
            conn.map_window(wid)
        assert not server.window(wid).mapped  # the request never ran
        conn.map_window(wid)  # rule exhausted: retry succeeds
        assert server.window(wid).mapped

    def test_unknown_error_name_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(ERROR, error="BadBanana")


class TestKillFaults:
    def test_kill_before_closes_connection(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(KILL, requests=("configure_window",), when="before")
        server.install_faults(plan)
        with pytest.raises(ConnectionClosed):
            conn.configure_window(wid, x=50)
        assert conn.client_id not in server.clients
        assert wid not in server.windows or server.windows[wid].destroyed

    def test_kill_after_lets_request_land_first(self, server, conn):
        wid = make_window(conn, mapped=False)
        plan = FaultPlan(seed=7)
        plan.rule(KILL, requests=("map_window",), when="after", max_fires=1)
        server.install_faults(plan)
        conn.map_window(wid)  # succeeds; the pipe breaks afterwards
        assert server.window(wid).mapped
        other = ClientConnection(server, "bystander")
        make_window(other)  # any next tick flushes the deferred kill
        assert conn.client_id not in server.clients
        assert not conn.is_alive()

    def test_requests_after_kill_raise_connection_closed(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(KILL, requests=("unmap_window",), max_fires=1)
        server.install_faults(plan)
        with pytest.raises(ConnectionClosed):
            conn.unmap_window(wid)
        with pytest.raises(ConnectionClosed):
            conn.create_window(conn.root_window(0), 0, 0, 10, 10)


class TestStaleFaults:
    def test_stale_destroys_target_then_real_badwindow(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(STALE, requests=("configure_window",))
        server.install_faults(plan)
        with pytest.raises(BadWindow):
            conn.move_window(wid, 5, 5)  # client-side name, server configure
        assert (
            wid not in server.windows or server.windows[wid].destroyed
        )
        assert plan.injected(STALE) == 1

    @pytest.mark.parametrize(
        "kind, prefix, tick",
        [
            # A ticking request that names no window: nothing to race.
            (STALE, "ungrab_pointer", lambda server, conn: conn.ungrab_pointer()),
            # Device input ticks with no client: nobody to kill or turn
            # hostile.
            (KILL, "motion", lambda server, conn: server.motion(5, 5)),
            (FLOOD, "motion", lambda server, conn: server.motion(5, 5)),
        ],
        ids=["stale", "kill", "flood"],
    )
    def test_stale_skips_requests_without_window_target(
        self, server, conn, kind, prefix, tick
    ):
        """A picked rule the request gives no target is declined: it
        was consulted (one draw) but never fires, records or counts."""
        plan = FaultPlan(seed=7)
        rule = plan.rule(kind, requests=(prefix,))
        server.install_faults(plan)
        tick(server, conn)
        assert rule.seen == 1
        assert rule.fires == 0
        assert plan.injected() == 0
        assert plan.log == []
        assert server.stats().get("injected", kind=kind) == 0


class TestDeliveryFaults:
    def test_drop_discards_event_and_counts_it(self, server, conn):
        wid = make_window(conn)
        from repro.xserver.event_mask import EventMask

        conn.select_input(wid, EventMask.Exposure)
        plan = FaultPlan(seed=7)
        plan.rule(DROP, events=("Expose",))
        server.install_faults(plan)
        before = conn.pending()
        conn.unmap_window(wid)
        conn.map_window(wid)  # generates Expose, which is dropped
        assert conn.pending() == before or all(
            type(e).__name__ != "Expose" for e in list(conn._queue)
        )
        assert plan.injected(DROP) >= 1
        assert server.stats().get("dropped", type="Expose") >= 1

    def test_delay_holds_until_release(self, server, conn):
        wid = make_window(conn)
        from repro.xserver.event_mask import EventMask

        conn.select_input(wid, EventMask.StructureNotify)
        plan = FaultPlan(seed=7)
        plan.rule(DELAY, events=("UnmapNotify",))
        server.install_faults(plan)
        conn.unmap_window(wid)
        assert plan.held_count() == 1
        assert all(
            type(e).__name__ != "UnmapNotify" for e in list(conn._queue)
        )
        released = plan.release_delayed(server)
        assert released == 1
        assert any(
            type(e).__name__ == "UnmapNotify" for e in list(conn._queue)
        )

    def test_delayed_events_for_dead_clients_are_dropped(self, server, conn):
        wid = make_window(conn)
        from repro.xserver.event_mask import EventMask

        conn.select_input(wid, EventMask.StructureNotify)
        plan = FaultPlan(seed=7)
        plan.rule(DELAY, events=("UnmapNotify",))
        server.install_faults(plan)
        conn.unmap_window(wid)
        assert plan.held_count() == 1
        conn.close()
        assert plan.release_delayed(server) == 0


class TestPlanContracts:
    def workload(self, seed):
        server = XServer(screens=[(800, 600, 8)])
        conn = ClientConnection(server, "app")
        plan = FaultPlan(seed)
        plan.rule(ERROR, probability=0.3, error="BadWindow")
        plan.rule(ERROR, probability=0.2, error="BadMatch")
        server.install_faults(plan)
        for step in range(60):
            try:
                wid = conn.create_window(
                    conn.root_window(0), step, step, 20, 20
                )
                conn.map_window(wid)
                conn.configure_window(wid, x=step + 1)
            except BadWindow:
                pass
            except BadMatch:
                pass
        return [(f.kind, f.target, f.detail) for f in plan.log]

    def test_same_seed_same_fault_log(self):
        assert self.workload(1990) == self.workload(1990)

    def test_different_seed_different_fault_log(self):
        assert self.workload(1990) != self.workload(90210)

    def test_bare_string_names_are_refused(self):
        """A bare string is a sequence of one-letter prefixes, so
        ``requests="map_window"`` would match ``move_window``: refuse it
        rather than fault requests the rule never named."""
        with pytest.raises(ValueError):
            FaultRule(ERROR, requests="map_window")
        with pytest.raises(ValueError):
            FaultRule(DROP, events="Expose")
        rule = FaultRule(ERROR, requests=("map_window",))
        assert rule.matches("map_window", 3)
        assert not rule.matches("move_window", 3)

    def test_suspended_blocks_injection(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(ERROR, error="BadWindow")
        server.install_faults(plan)
        with plan.suspended():
            conn.configure_window(wid, x=1)  # would have raised
        assert plan.total_injected() == 0
        with pytest.raises(BadWindow):
            conn.configure_window(wid, x=2)

    def test_arm_after_skips_warmup(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(ERROR, error="BadWindow", requests=("configure_window",),
                  arm_after=2)
        server.install_faults(plan)
        conn.configure_window(wid, x=1)
        conn.configure_window(wid, x=2)
        with pytest.raises(BadWindow):
            conn.configure_window(wid, x=3)

    def test_client_filter_spares_other_clients(self, server):
        victim = ClientConnection(server, "victim")
        spared = ClientConnection(server, "spared")
        v_wid = make_window(victim)
        s_wid = make_window(spared)
        plan = FaultPlan(seed=7)
        plan.rule(ERROR, error="BadWindow", clients=(victim.client_id,))
        server.install_faults(plan)
        spared.configure_window(s_wid, x=1)  # never faulted
        with pytest.raises(BadWindow):
            victim.configure_window(v_wid, x=1)

    def test_stats_snapshot_exposes_fault_counters(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule(ERROR, error="BadAccess", requests=("configure_window",),
                  max_fires=1)
        server.install_faults(plan)
        with pytest.raises(BadAccess):
            conn.configure_window(wid, x=1)
        snap = server.stats().snapshot()
        assert snap["injected_faults"] == {ERROR: 1}
        assert "guarded_errors" in snap
        assert "dropped" in snap


def log_digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


def test_seed_1337_fault_logs_are_pinned(tmp_path):
    """The (serial, kind, target, detail) fault logs of the chaos-wm
    replay workload and the link-chaos scenario at seed 1337, fixed
    regardless of CHAOS_SEED: a change to rule matching, draw order or
    recording that moves either log fails here."""
    wm_log = replay_workload(1337, str(tmp_path / "wm.places"))
    link_log = run_scenario(1337, str(tmp_path / "link.places"))["faults"]
    assert (len(wm_log), log_digest(wm_log)) == (148, "8ed3bbfcb0ae8048")
    # The link plan draws once per frame: since the client answers
    # predefined and already-interned atoms from its own cache, the
    # tour sends fewer frames (81 faults before the cache).
    assert (len(link_log), log_digest(link_log)) == (55, "634bdbcca9c25284")
