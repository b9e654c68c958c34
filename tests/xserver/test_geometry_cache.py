"""Cache invalidation for the server's hot-path caches.

The window tree memoises root origins, clip regions, event-interest,
and per-parent stacking indexes (see ``repro.xserver.window``);
viewability is walked, not cached.  These tests
drive every invalidation edge — pan-style configure, border change,
reparent, restack, map/unmap, destroy-subwindows, selection change,
client close — and assert the caches serve *fresh* answers afterwards,
with no opt-out needed for correctness.
"""

import pytest

import repro.xserver.events as ev
from repro.xserver import ClientConnection, EventMask, NONE, XServer


@pytest.fixture
def server():
    return XServer(screens=[(1152, 900, 8)])


@pytest.fixture
def conn(server):
    return ClientConnection(server, "app")


def manual_origin(window):
    """Root origin recomputed the slow way, bypassing the cache."""
    x, y = window.rect.x, window.rect.y
    for ancestor in window.ancestors():
        x += ancestor.rect.x + ancestor.border_width
        y += ancestor.rect.y + ancestor.border_width
    return x, y


def build_desktop(conn, children=6, grandchildren=2):
    """A pan-style tree: one big 'desktop' window full of descendants."""
    desk = conn.create_window(conn.root_window(), 0, 0, 1100, 880)
    conn.map_window(desk)
    tree = []
    for i in range(children):
        child = conn.create_window(
            desk, 30 + i * 170, 40 + (i % 2) * 300, 150, 250, border_width=2
        )
        conn.map_window(child)
        inners = []
        for j in range(grandchildren):
            inner = conn.create_window(child, 10, 10 + j * 100, 120, 80)
            conn.map_window(inner)
            inners.append(inner)
        tree.append((child, inners))
    return desk, tree


class TestPanInvalidation:
    def test_pan_refreshes_every_descendant(self, server, conn):
        """A pan is one ConfigureWindow on the desktop window; every
        descendant must report fresh root coordinates afterwards."""
        desk, tree = build_desktop(conn)
        # Warm every cache.
        for child, inners in tree:
            for wid in [child] + inners:
                server.window(wid).position_in_root()
        conn.move_window(desk, -400, -300)
        for child, inners in tree:
            for wid in [child] + inners:
                window = server.window(wid)
                origin = window.position_in_root()
                assert (origin.x, origin.y) == manual_origin(window)
        # translate_coordinates sees the pan too.
        child, inners = tree[0]
        x, y, _ = conn.translate_coordinates(inners[0], conn.root_window(), 0, 0)
        assert (x, y) == manual_origin(server.window(inners[0]))

    def test_pan_refreshes_query_pointer(self, server, conn):
        desk, tree = build_desktop(conn)
        child = tree[0][0]
        info = conn.query_pointer(child)
        conn.move_window(desk, -200, -100)
        after = conn.query_pointer(child)
        assert after["win_x"] == info["win_x"] + 200
        assert after["win_y"] == info["win_y"] + 100

    def test_repeated_pans_each_fresh(self, server, conn):
        desk, tree = build_desktop(conn, children=3, grandchildren=1)
        leaf = tree[-1][1][0]
        for step in range(8):
            conn.move_window(desk, -step * 50, -step * 30)
            window = server.window(leaf)
            origin = window.position_in_root()
            assert (origin.x, origin.y) == manual_origin(window)

    def test_border_change_shifts_descendants(self, server, conn):
        desk, tree = build_desktop(conn, children=1, grandchildren=1)
        inner = tree[0][1][0]
        before = server.window(inner).position_in_root()
        conn.configure_window(desk, border_width=7)
        after = server.window(inner).position_in_root()
        assert (after.x, after.y) == (before.x + 7, before.y + 7)


class TestReparentInvalidation:
    def test_reparent_refreshes_subtree(self, server, conn):
        frame = conn.create_window(conn.root_window(), 300, 200, 400, 400,
                                   border_width=3)
        conn.map_window(frame)
        wid = conn.create_window(conn.root_window(), 10, 10, 100, 100)
        inner = conn.create_window(wid, 5, 5, 50, 50)
        conn.map_window(wid)
        conn.map_window(inner)
        server.window(inner).position_in_root()  # warm
        conn.reparent_window(wid, frame, 20, 30)
        window = server.window(inner)
        origin = window.position_in_root()
        assert (origin.x, origin.y) == manual_origin(window)
        assert (origin.x, origin.y) == (300 + 3 + 20 + 5, 200 + 3 + 30 + 5)

    def test_reparent_refreshes_viewability(self, server, conn):
        hidden = conn.create_window(conn.root_window(), 0, 0, 200, 200)
        # not mapped
        wid = conn.create_window(conn.root_window(), 10, 10, 100, 100)
        conn.map_window(wid)
        assert server.window(wid).viewable
        conn.reparent_window(wid, hidden, 0, 0)
        assert server.window(wid).mapped       # remapped after reparent
        assert not server.window(wid).viewable  # parent unmapped


class TestVisibilityInvalidation:
    def test_unmap_ancestor_hides_subtree(self, server, conn):
        desk, tree = build_desktop(conn, children=2, grandchildren=2)
        leaves = [wid for _, inners in tree for wid in inners]
        assert all(server.window(w).viewable for w in leaves)
        conn.unmap_window(desk)
        assert not any(server.window(w).viewable for w in leaves)
        assert all(
            server.window(w).map_state == 1 for w in leaves  # IsUnviewable
        )
        conn.map_window(desk)
        assert all(server.window(w).viewable for w in leaves)


class TestStackingInvalidation:
    def test_restack_changes_hit_test(self, server, conn):
        a = conn.create_window(conn.root_window(), 100, 100, 200, 200)
        b = conn.create_window(conn.root_window(), 100, 100, 200, 200)
        conn.map_window(a)
        conn.map_window(b)
        server.motion(150, 150)
        assert server.pointer.window.id == b
        conn.raise_window(a)
        # The restack itself refreshes the pointer window.
        assert server.pointer.window.id == a
        info = conn.query_pointer(conn.root_window())
        assert info["child"] == a
        conn.lower_window(a)
        assert server.pointer.window.id == b

    def test_circulate_changes_hit_test(self, server, conn):
        wids = [
            conn.create_window(conn.root_window(), 100, 100, 200, 200)
            for _ in range(3)
        ]
        for wid in wids:
            conn.map_window(wid)
        server.motion(150, 150)
        assert server.pointer.window.id == wids[-1]
        conn.circulate_window(conn.root_window(), ev.RAISE_LOWEST)
        assert server.pointer.window.id == wids[0]

    def test_destroy_subwindows_refreshes_hit_test(self, server, conn):
        desk, tree = build_desktop(conn, children=2, grandchildren=1)
        child = tree[0][0]
        origin = server.window(child).position_in_root()
        server.motion(origin.x + 15, origin.y + 15)
        assert server.pointer.window.id == tree[0][1][0]
        conn.destroy_subwindows(desk)
        assert server.pointer.window.id == desk
        info = conn.query_pointer(desk)
        assert info["child"] == NONE

    def test_stacking_index_is_top_to_bottom(self, server, conn):
        wids = [
            conn.create_window(conn.root_window(), i * 10, 0, 50, 50)
            for i in range(3)
        ]
        for wid in wids:
            conn.map_window(wid)
        root = server.screens[0].root
        index = [child.id for child, _ in root.stacking_index()]
        assert index[: len(wids)] == list(reversed(wids))

    def test_configure_leaves_other_parents_index(self, server, conn):
        _, [(a, a_kids), (b, _)] = two_parents(conn)
        server.motion(1090, 870)  # over neither parent
        server.window(a).stacking_index()
        server.window(b).stacking_index()
        conn.move_window(a_kids[0], 7, 9)
        stats = server.stats()
        stats.reset()
        server.window(b).stacking_index()
        assert stats.cache_counters()["stacking_index"]["hits"] == 1
        assert stats.cache_counters()["stacking_index"]["misses"] == 0

    def test_moving_common_ancestor_rebuilds_neither(self, server, conn):
        desk, parents = two_parents(conn)
        warm = [server.window(p).stacking_index() for p, _ in parents]
        conn.move_window(desk, -40, -30)
        for parent, kids in parents:
            origin = server.window(kids[5]).position_in_root()
            server.motion(origin.x + 3, origin.y + 3)
            assert server.pointer.window.id == kids[5]
            assert conn.query_pointer(parent)["child"] == kids[5]
        assert all(
            server.window(p).stacking_index() is index
            for (p, _), index in zip(parents, warm)
        )

    def test_reparent_out_drops_child_from_old_parent(self, server, conn):
        _, [(a, a_kids), (b, _)] = two_parents(conn)
        kid = a_kids[3]
        origin = server.window(kid).position_in_root()
        server.motion(origin.x + 3, origin.y + 3)
        assert conn.query_pointer(a)["child"] == kid
        conn.reparent_window(kid, b, 900, 300)
        assert conn.query_pointer(a)["child"] == NONE
        assert server.pointer.window.id == a


def two_parents(conn, per_parent=32):
    """Two mapped parents under one mapped common ancestor, each holding
    a grid of `per_parent` mapped, non-overlapping children."""
    desk = conn.create_window(conn.root_window(), 0, 0, 1100, 880)
    parents = []
    for p in range(2):
        parent = conn.create_window(desk, 20, 20 + p * 420, 1000, 400,
                                    border_width=1)
        kids = [
            conn.create_window(parent, (i % 8) * 120 + 5, (i // 8) * 90 + 5,
                               100, 70, border_width=1)
            for i in range(per_parent)
        ]
        conn.map_subwindows(parent)
        parents.append((parent, kids))
    conn.map_subwindows(desk)
    conn.map_window(desk)
    return desk, parents


class TestInterestInvalidation:
    def test_select_input_refreshes_all_masks(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 50, 50)
        window = server.window(wid)
        assert window.all_masks() == EventMask.NoEvent
        conn.select_input(wid, EventMask.PointerMotion)
        assert window.all_masks() == EventMask.PointerMotion
        other = ClientConnection(server, "other")
        other.select_input(wid, EventMask.KeyPress)
        assert window.all_masks() == EventMask.PointerMotion | EventMask.KeyPress
        assert window.clients_selecting(EventMask.KeyPress) == [other.client_id]

    def test_close_client_drops_interest(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 50, 50)
        other = ClientConnection(server, "other")
        other.select_input(wid, EventMask.KeyPress)
        assert window_masks(server, wid) & EventMask.KeyPress
        other.close()
        assert not window_masks(server, wid) & EventMask.KeyPress
        assert server.window(wid).clients_selecting(EventMask.KeyPress) == []

    def test_deselect_refreshes(self, server, conn):
        wid = conn.create_window(conn.root_window(), 0, 0, 50, 50)
        conn.select_input(wid, EventMask.PointerMotion)
        assert server.window(wid).clients_selecting(EventMask.PointerMotion)
        conn.select_input(wid, EventMask.NoEvent)
        assert server.window(wid).all_masks() == EventMask.NoEvent


def window_masks(server, wid):
    return server.window(wid).all_masks()


class TestCacheCounters:
    def test_counters_in_snapshot(self, server, conn):
        snapshot = server.stats().snapshot()
        assert set(snapshot["caches"]) == {
            "geometry", "stacking_index", "interest", "region"
        }

    def test_hits_accumulate_and_invalidations_count(self, server, conn):
        wid = conn.create_window(conn.root_window(), 10, 10, 100, 100)
        window = server.window(wid)
        stats = server.stats()
        stats.reset()
        window.position_in_root()
        window.position_in_root()
        assert stats.cache_counters()["geometry"]["hits"] >= 1
        before = stats.cache_counters()["geometry"]["invalidations"]
        conn.move_window(wid, 50, 50)
        assert stats.cache_counters()["geometry"]["invalidations"] > before

    def test_reset_preserves_correctness(self, server, conn):
        """Resetting counters must not revalidate stale entries."""
        wid = conn.create_window(conn.root_window(), 10, 10, 100, 100)
        window = server.window(wid)
        window.position_in_root()
        server.stats().reset()
        conn.move_window(wid, 77, 88)
        origin = window.position_in_root()
        assert (origin.x, origin.y) == (77, 88)

    def test_steady_state_hit_rate(self, server, conn):
        desk, tree = build_desktop(conn)
        for step in range(50):  # warm
            server.motion(10 + step * 7, 10 + step * 5)
        server.stats().reset()
        for step in range(200):
            server.motion(10 + (step * 13) % 1000, 10 + (step * 7) % 800)
        assert server.stats().cache_hit_rate() >= 0.9
