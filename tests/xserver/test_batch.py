"""Batch executor semantics: coalescing, split rules, determinism.

The contract under test (see ``repro.xserver.batch``): every op in a
batch runs through its real entry point — ticks, fault draws, quota
charges and stats are per logical request — while notification
synthesis coalesces per window (configure) / per window+atom
(property) and flushes at batch end, at any fault boundary, and at any
per-op X error (quota denials included).
"""

import pytest

import repro.xserver.events as ev
from repro.xserver import (
    ClientConnection,
    EventMask,
    XServer,
)
from repro.xserver.errors import XError
from repro.xserver.faults import ConnectionClosed, FaultPlan
from repro.xserver.quotas import QuotaLimits


@pytest.fixture
def server():
    return XServer(screens=[(1152, 900, 8)])


@pytest.fixture
def conn(server):
    return ClientConnection(server, "app")


def make_window(conn, x=10, y=10, w=100, h=80, select=True):
    wid = conn.create_window(conn.root_window(), x, y, w, h)
    if select:
        conn.select_input(
            wid,
            EventMask.StructureNotify
            | EventMask.Exposure
            | EventMask.PropertyChange,
        )
    conn.map_window(wid)
    conn.events()
    return wid


def events_of(conn, type_name):
    return [e for e in conn.events() if type(e).__name__ == type_name]


class TestBatchCoalescing:
    def test_last_write_wins_configure(self, server, conn):
        wid = make_window(conn)
        with conn.batch() as results:
            for step in range(8):
                conn.move_window(wid, step, step)
        assert len(results) == 8
        assert all(r["ok"] for r in results)
        notifies = events_of(conn, "ConfigureNotify")
        assert len(notifies) == 1
        assert (notifies[0].x, notifies[0].y) == (7, 7)
        assert server.stats().get("batched") == 8
        assert server.stats().get("batch_coalesced") == 7

    def test_configure_runs_coalesce_per_window(self, server, conn):
        wids = [make_window(conn, x=i * 30) for i in range(3)]
        with conn.batch():
            for _ in range(4):
                for wid in wids:
                    conn.move_window(wid, 5, 5)
        notifies = events_of(conn, "ConfigureNotify")
        assert len(notifies) == 3
        assert {n.window for n in notifies} == set(wids)

    def test_stacking_ops_fuse_into_final_notify(self, server, conn):
        below = make_window(conn, x=0)
        above = make_window(conn, x=10)
        with conn.batch():
            conn.raise_window(below)
            conn.lower_window(below)
            conn.raise_window(below)
        notifies = [
            n for n in events_of(conn, "ConfigureNotify")
            if n.window == below
        ]
        assert len(notifies) == 1
        # Final state: raised above its sibling.
        assert notifies[0].above_sibling == above

    def test_property_overwrites_squash(self, server, conn):
        wid = make_window(conn)
        atom = conn.intern_atom("SWM_TEST")
        string = conn.intern_atom("STRING")
        with conn.batch():
            for i in range(5):
                conn.change_property(wid, atom, string, 8, f"v{i}")
        notifies = events_of(conn, "PropertyNotify")
        assert len(notifies) == 1
        assert notifies[0].state == ev.PROPERTY_NEW_VALUE
        prop = conn.get_property(wid, atom)
        assert prop.as_string() == "v4"

    def test_change_then_delete_reports_delete(self, server, conn):
        wid = make_window(conn)
        atom = conn.intern_atom("SWM_TEST")
        string = conn.intern_atom("STRING")
        with conn.batch():
            conn.change_property(wid, atom, string, 8, "value")
            conn.delete_property(wid, atom)
        notifies = events_of(conn, "PropertyNotify")
        assert len(notifies) == 1
        assert notifies[0].state == ev.PROPERTY_DELETE

    def test_net_grow_exposes_once_net_shrink_not_at_all(self, server, conn):
        wid = make_window(conn, w=100, h=100)
        with conn.batch():
            conn.resize_window(wid, 200, 200)
            conn.resize_window(wid, 100, 100)
        assert not events_of(conn, "Expose")  # net no-growth
        with conn.batch():
            conn.resize_window(wid, 50, 50)
            conn.resize_window(wid, 150, 150)
        exposes = events_of(conn, "Expose")
        assert len(exposes) == 1  # net growth: one damage pass
        assert (exposes[0].width, exposes[0].height) == (150, 150)

    def test_non_batchable_request_flushes_first(self, server, conn):
        wid = make_window(conn)
        with conn.batch():
            conn.move_window(wid, 40, 41)
            # A read must observe the buffered move: the client flushes
            # the batch before issuing it.
            x, y, _, _, _ = conn.get_geometry(wid)
            assert (x, y) == (40, 41)
            notifies = events_of(conn, "ConfigureNotify")
            assert len(notifies) == 1

    def test_nested_batch_joins_outer(self, server, conn):
        wid = make_window(conn)
        with conn.batch() as outer:
            conn.move_window(wid, 1, 1)
            with conn.batch() as inner:
                conn.move_window(wid, 2, 2)
            assert inner is outer
            # Still buffered: the inner exit must not flush.
            assert not events_of(conn, "ConfigureNotify")
        assert len(events_of(conn, "ConfigureNotify")) == 1

    def test_per_op_error_is_result_not_exception(self, server, conn):
        # Coalescing off: the delivery pipeline would merge the two
        # flush segments' notifies while they sit in the queue.
        conn.set_coalescing(False)
        wid = make_window(conn)
        gone = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.destroy_window(gone)
        conn.events()
        with conn.batch() as results:
            conn.move_window(wid, 3, 3)
            conn.move_window(gone, 4, 4)  # BadWindow: error-as-data
            conn.move_window(wid, 5, 5)
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"] == "BadWindow"
        notifies = events_of(conn, "ConfigureNotify")
        # The error split the batch: one notify per flush segment.
        assert [(n.x, n.y) for n in notifies] == [(3, 3), (5, 5)]

    def test_sibling_is_itself_is_per_op_error(self, server, conn):
        wid = make_window(conn)
        other = make_window(conn, x=200)
        with conn.batch() as results:
            conn.move_window(other, 3, 3)
            conn.configure_window(wid, x=99, sibling=wid, stack_mode=ev.ABOVE)
            conn.move_window(other, 5, 5)
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"] == "BadMatch"
        _, _, children = conn.query_tree(conn.root_window())
        assert children == [wid, other]
        assert conn.get_geometry(wid)[0] == 10


class TestBatchSplitBoundaries:
    def test_quota_denial_splits_batch(self):
        server = XServer(
            screens=[(800, 600, 8)],
            quota_limits=QuotaLimits(max_property_bytes=64),
        )
        conn = ClientConnection(server, "app")
        conn.set_coalescing(False)  # keep both flush segments visible
        wid = make_window(conn)
        atom = conn.intern_atom("SWM_TEST")
        string = conn.intern_atom("STRING")
        with conn.batch() as results:
            conn.move_window(wid, 9, 9)
            conn.change_property(wid, atom, string, 8, "x" * 4096)
            conn.move_window(wid, 11, 11)
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"] == "QuotaExceeded"
        notifies = events_of(conn, "ConfigureNotify")
        # Split at the denial: the first move flushed there, the second
        # at batch end.
        assert [(n.x, n.y) for n in notifies] == [(9, 9), (11, 11)]
        assert server.stats().get("quota_denials") == 1

    def test_fault_error_splits_batch(self, server, conn):
        wids = [make_window(conn, x=i * 30) for i in range(3)]
        plan = FaultPlan(seed=7)
        plan.rule(
            "error", requests=["configure_window"], error="BadImplementation",
            arm_after=1, max_fires=1,
        )
        server.install_faults(plan)
        with conn.batch() as results:
            for wid in wids:
                conn.move_window(wid, 2, 2)
        server.clear_faults()
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"] == "BadImplementation"
        notifies = events_of(conn, "ConfigureNotify")
        # The fault fired before op 2 mutated anything, flushing op 1's
        # pending notify; op 3 flushed at batch end.
        assert [n.window for n in notifies] == [wids[0], wids[2]]
        assert plan.injected("error") == 1

    def test_stale_fault_splits_and_op_fails_cleanly(self, server, conn):
        victim = make_window(conn, x=0)
        other = make_window(conn, x=200)
        plan = FaultPlan(seed=7)
        plan.rule(
            "stale", requests=["configure_window"], arm_after=1, max_fires=1,
        )
        server.install_faults(plan)
        with conn.batch() as results:
            conn.move_window(other, 2, 2)
            conn.move_window(victim, 3, 3)  # stale race destroys victim
            conn.move_window(other, 4, 4)
        server.clear_faults()
        assert results[0]["ok"] is True
        assert results[1] == {
            "ok": False, "error": "BadWindow",
            "detail": results[1]["detail"],
        }
        assert results[2]["ok"] is True
        assert victim not in server.windows
        destroys = events_of(conn, "DestroyNotify")
        assert [d.window for d in destroys] == [victim]

    def test_kill_fault_propagates_out_of_batch(self, server, conn):
        wid = make_window(conn)
        plan = FaultPlan(seed=7)
        plan.rule("kill", requests=["configure_window"], arm_after=1)
        server.install_faults(plan)
        with pytest.raises(ConnectionClosed):
            with conn.batch():
                conn.move_window(wid, 1, 1)
                conn.move_window(wid, 2, 2)
        server.clear_faults()
        assert not conn.is_alive()


class TestReplayDeterminism:
    """A seeded fault plan must replay bit-identically whether the
    workload issues its requests one by one or through batch()."""

    @pytest.mark.parametrize("seed", [7, 1337, 2025, 90210])
    def test_batched_run_matches_unbatched(self, seed):
        def build():
            server = XServer(screens=[(1152, 900, 8)])
            conn = ClientConnection(server, "app")
            wids = [
                make_window(conn, x=i * 40, y=i * 25, select=(i % 2 == 0))
                for i in range(6)
            ]
            plan = FaultPlan(seed)
            plan.rule(
                "error", probability=0.2, requests=["configure_window"],
                error="BadImplementation",
            )
            plan.rule(
                "stale", probability=0.1, requests=["change_property"],
                max_fires=2,
            )
            server.install_faults(plan)
            return server, conn, wids, plan

        def workload(conn, wids, use_batch):
            atom = conn.intern_atom("SWM_TEST")
            string = conn.intern_atom("STRING")

            def ops():
                for step in range(4):
                    for wid in wids:
                        yield ("configure_window", conn.move_window,
                               (wid, step * 7, step * 5))
                        if step % 2 == 0:
                            yield ("change_property", conn.change_property,
                                   (wid, atom, string, 8, f"s{step}"))

            if use_batch:
                with conn.batch():
                    for _, call, args in ops():
                        call(*args)
            else:
                for _, call, args in ops():
                    # Mirror the executor's errors-as-data semantics.
                    try:
                        call(*args)
                    except XError:
                        pass

        def fingerprint(server, plan):
            tree = sorted(
                (wid, w.rect, w.mapped, w.parent.id if w.parent else None)
                for wid, w in server.windows.items()
            )
            log = [
                (f.serial, f.kind, f.target, f.client_id, f.detail)
                for f in plan.log
            ]
            return tree, log, dict(server.stats().snapshot()["requests"])

        server_a, conn_a, wids_a, plan_a = build()
        workload(conn_a, wids_a, use_batch=False)
        server_b, conn_b, wids_b, plan_b = build()
        workload(conn_b, wids_b, use_batch=True)

        assert wids_a == wids_b
        tree_a, log_a, requests_a = fingerprint(server_a, plan_a)
        tree_b, log_b, requests_b = fingerprint(server_b, plan_b)
        assert log_a == log_b  # identical RNG draws and fault history
        assert tree_a == tree_b  # identical final tree state
        # Identical per-request accounting, except the batch wrapper.
        requests_b.pop("execute_batch", None)
        assert requests_a == requests_b
