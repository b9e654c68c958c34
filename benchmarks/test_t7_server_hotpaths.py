"""T7 — simulated-server hot paths under the geometry/interest caches.

Not a paper claim: an implementation benchmark for this repo's simulated
X server.  The per-event hot paths (pointer hit-testing, coordinate
translation, configure fan-out) are memoised under per-parent stamps
(see ``repro.xserver.window``); these cases pin the two properties the
caches buy us:

- **flatness** — on a steady-state motion sweep the *cache* work stays
  flat as the root fills with 0..32 top-level windows: cached root
  origins revalidate zero times per sweep (the
  counter-level guard below), so the hit test costs O(depth of the
  window under the pointer) plus a single scan of the parent's
  bounding-box index — cheap tuple compares — rather than re-deriving
  origins, masks, and map state per window per event as the uncached
  code did;
- **amortised O(1) geometry** — repeated ``translate_coordinates`` and
  ``query_pointer`` calls re-use cached root origins (hit rate >= 90%
  with motion coalescing disabled, so every event is fully delivered).

Four guards count work by wrapping server internals from the test:
SHAPE conversions for one managed oclock (bitmap to bands at most
twice, never back), the hit tests and exposure passes of one manage,
which swm does off-screen and shows with a single MapWindow, the
general region sweeps run while a grown widget's exposures go out
(none: every clip step has a rectangle operand), and the clips those
exposures recompute (one: the grown widget's own).  A reintroduced mask
round trip, a frame mapped before it is built, a clip built from
one-rectangle regions, or a child's configure that invalidates its
ancestors' clips fails by count rather than by timing.

Timing cases use pytest-benchmark (group ``t7``); the guards are plain
asserts on ``server.stats()`` cache counters, so they hold under
``--benchmark-disable`` too.
"""

import pytest

from repro import icccm
from repro.clients import OClock, XTerm
from repro.testing import wm_consistency_problems
from repro.xserver import ClientConnection, EventMask, XServer, region, shape
from repro.xserver.window import Window

from .conftest import fresh_server, fresh_wm, report

SWEEP = 400  # motion events per sweep


def populate(server, top_level, nested_per_window=2, select=False):
    """`top_level` mapped windows on the root, each with nested children
    — the shape of a busy desktop.  With ``select`` the windows also ask
    for motion events, so sweeps exercise delivery (and the interest
    cache), not just hit-testing; delivery volume then grows with the
    fraction of the screen covered, so timing cases that want to see
    hit-test *flatness* leave it off."""
    conn = ClientConnection(server, "apps", coalesce=False)
    for i in range(top_level):
        wid = conn.create_window(
            conn.root_window(),
            (i * 37) % 900, (i * 53) % 700, 180, 140,
            border_width=2,
        )
        conn.map_window(wid)
        if select:
            conn.select_input(
                wid, EventMask.PointerMotion | EventMask.StructureNotify
            )
        inner = wid
        for _ in range(nested_per_window):
            inner = conn.create_window(inner, 8, 8, 120, 90)
            conn.map_window(inner)
            if select:
                conn.select_input(inner, EventMask.PointerMotion)
    return conn


def sweep(server, steps=SWEEP):
    for step in range(steps):
        server.motion(5 + (step * 13) % 1100, 5 + (step * 7) % 850)


def deep_tree(conn, depth=24):
    """One chain of nested windows `depth` deep."""
    wid = conn.create_window(conn.root_window(), 2, 2, 1000, 800)
    conn.map_window(wid)
    chain = [wid]
    for _ in range(depth - 1):
        wid = conn.create_window(wid, 1, 1, 1000, 800)
        conn.map_window(wid)
        chain.append(wid)
    return chain


# -- timing cases (pytest-benchmark, group t7) --------------------------------


@pytest.mark.benchmark(group="t7")
@pytest.mark.parametrize("population", [0, 8, 32])
def test_t7_motion_sweep(benchmark, population):
    """Steady-state pointer sweep cost as the desktop fills up."""
    server = fresh_server()
    populate(server, population)
    sweep(server)  # warm the caches
    benchmark(sweep, server)


@pytest.mark.benchmark(group="t7")
def test_t7_translate_storm(benchmark):
    """translate_coordinates between the two ends of a deep chain."""
    server = fresh_server()
    conn = ClientConnection(server, "app", coalesce=False)
    chain = deep_tree(conn)
    leaf, root = chain[-1], conn.root_window()

    def storm():
        for _ in range(200):
            conn.translate_coordinates(leaf, root, 3, 4)
            conn.translate_coordinates(root, leaf, 500, 400)

    benchmark(storm)


@pytest.mark.benchmark(group="t7")
def test_t7_deep_configure(benchmark):
    """Pan-style ConfigureWindow at the top of a deep chain, followed by
    a query at the bottom — one O(1) invalidation plus one revalidating
    walk per configure."""
    server = fresh_server()
    conn = ClientConnection(server, "app", coalesce=False)
    chain = deep_tree(conn)
    top, leaf = chain[0], chain[-1]

    def configure_and_query(step=[0]):
        step[0] += 1
        for i in range(50):
            conn.move_window(top, (step[0] + i) % 40, (step[0] + i) % 30)
            conn.translate_coordinates(leaf, conn.root_window(), 0, 0)

    benchmark(configure_and_query)


# -- guards (plain asserts; run even with --benchmark-disable) ----------------


def test_t7_hit_rate_guard():
    """>= 90% cache hit rate on a steady-state sweep, coalescing off."""
    server = fresh_server()
    populate(server, 16, select=True)
    sweep(server)  # warm
    server.stats().reset()
    sweep(server)
    rate = server.stats().cache_hit_rate()
    report("T7: steady-state cache hit rate", [f"hit rate: {rate:.4f}"])
    assert rate >= 0.9


def test_t7_flatness_guard():
    """Steady-state geometry *misses* per sweep stay near zero no matter
    the population — the counter-level form of the flatness claim (no
    timing noise)."""
    lines = []
    for population in (0, 8, 32):
        server = fresh_server()
        populate(server, population)
        sweep(server)  # warm
        server.stats().reset()
        sweep(server)
        misses = server.stats().cache_counters()["geometry"]["misses"]
        lines.append(f"population={population:3d}  geometry misses: {misses}")
        assert misses == 0
    report("T7: steady-state geometry misses per sweep", lines)


def toolkit(conn, x, y, children):
    """A mapped top-level holding a 16-column grid of mapped widgets."""
    top = conn.create_window(conn.root_window(), x, y, 896, 352)
    widgets = [
        conn.create_window(top, (i % 16) * 56 + 4, (i // 16) * 44 + 4, 46, 34,
                           border_width=1)
        for i in range(children)
    ]
    conn.map_subwindows(top)
    conn.map_window(top)
    return widgets


def test_t7_index_locality_guard():
    """Child configures in one 128-child parent, interleaved with a
    motion sweep over both parents, rebuild at most one stacking index
    per two configures, and exactly as many whether the other parent
    holds 0 or 128 children: each parent's index is dropped only by
    changes to its own children, never an ancestor's or a cousin's."""
    lines = []
    counts = []
    for other in (0, 128):
        server = fresh_server()
        conn = ClientConnection(server, "apps", coalesce=False)
        widgets = toolkit(conn, 24, 40, 128)
        toolkit(conn, 96, 470, other)
        sweep(server)  # warm
        server.stats().reset()
        configures = 0
        for step in range(SWEEP):
            server.motion(5 + (step * 13) % 1100, 5 + (step * 7) % 850)
            if step % 4 == 0:
                conn.move_window(widgets[(step * 5) % 128],
                                 (step % 16) * 56, (step % 8) * 44)
                configures += 1
        rebuilds = server.stats().cache_counters()["stacking_index"]["misses"]
        lines.append(f"other parent={other:3d}  configures: {configures}"
                     f"  index rebuilds: {rebuilds}")
        assert rebuilds <= configures // 2
        counts.append(rebuilds)
    report("T7: stacking-index rebuilds per child configure", lines)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("batched", [False, True])
def test_t7_clip_sweep_guard(monkeypatch, batched):
    """Growing one widget of a 128-widget grid, so that it slides under
    its neighbours, runs the general region x region sweep (`_combine`)
    zero times inside `_send_exposures`, unbatched and batched: every
    clip step intersects or subtracts one box, band-local.  Counted by
    wrapping `_combine` and `_send_exposures` from outside."""
    server = fresh_server()
    conn = ClientConnection(server, "apps", coalesce=False)
    widgets = toolkit(conn, 24, 40, 128)
    for wid in widgets:
        conn.select_input(wid, EventMask.Exposure)
    counts = {"exposures": 0, "sweeps": 0}
    inside = []
    sweep_inner = region._combine
    expose_inner = XServer._send_exposures

    def counted_sweep(*args):
        if inside:
            counts["sweeps"] += 1
        return sweep_inner(*args)

    def counted_exposures(self, window):
        counts["exposures"] += 1
        inside.append(window)
        try:
            return expose_inner(self, window)
        finally:
            inside.pop()

    monkeypatch.setattr(region, "_combine", counted_sweep)
    monkeypatch.setattr(XServer, "_send_exposures", counted_exposures)
    grown = widgets[17]  # row 1, column 1: neighbours above on two sides
    if batched:
        with conn.batch():
            conn.configure_window(grown, width=60, height=48)
    else:
        conn.configure_window(grown, width=60, height=48)
    report(f"T7: region sweeps while exposing a grown widget"
           f" ({'batched' if batched else 'unbatched'})", [
        f"exposure passes: {counts['exposures']}",
        f"_combine calls inside them: {counts['sweeps']}",
    ])
    assert counts["exposures"] >= 1
    assert server.window(grown).clip_region().area() < 60 * 48
    assert counts["sweeps"] == 0


@pytest.mark.parametrize("batched", [False, True])
def test_t7_clip_recompute_guard(monkeypatch, batched):
    """Growing one widget of a 128-widget grid, with every clip already
    cached, recomputes exactly one clip inside `_send_exposures`, the
    grown widget's own, unbatched and batched: a child's configure
    leaves its parent's and the root's clips valid.  Counted by
    wrapping `Window._compute_clip` and `_send_exposures` from
    outside."""
    server = fresh_server()
    conn = ClientConnection(server, "apps", coalesce=False)
    widgets = toolkit(conn, 24, 40, 128)
    for wid in widgets:
        conn.select_input(wid, EventMask.Exposure)
        server.window(wid).clip_region()  # warm every clip
    counts = {"exposures": 0, "recomputes": 0}
    inside = []
    compute_inner = Window._compute_clip
    expose_inner = XServer._send_exposures

    def counted_compute(self, parent_clip):
        if inside:
            counts["recomputes"] += 1
        return compute_inner(self, parent_clip)

    def counted_exposures(self, window):
        counts["exposures"] += 1
        inside.append(window)
        try:
            return expose_inner(self, window)
        finally:
            inside.pop()

    monkeypatch.setattr(Window, "_compute_clip", counted_compute)
    monkeypatch.setattr(XServer, "_send_exposures", counted_exposures)
    grown = widgets[17]
    if batched:
        with conn.batch():
            conn.configure_window(grown, width=60, height=48)
    else:
        conn.configure_window(grown, width=60, height=48)
    report(f"T7: clip recomputes while exposing a grown widget"
           f" ({'batched' if batched else 'unbatched'})", [
        f"exposure passes: {counts['exposures']}",
        f"_compute_clip calls inside them: {counts['recomputes']}",
    ])
    assert counts["exposures"] == 1
    assert counts["recomputes"] == 1


def test_t7_shaped_launch_conversion_guard(monkeypatch):
    """swm managing one oclock turns a SHAPE bitmap into bands at most
    twice (the client's ShapeMask and the frame's) and never rasterises
    a region back into a bitmap: the frame forwards the client's own
    mask at a shifted offset.  Counted by wrapping the two converters
    from outside, so a reintroduced round trip fails deterministically."""
    calls = {"bitmap_region": 0, "region_bitmap": 0}

    def counted(name):
        inner = getattr(shape, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(shape, name, wrapper)

    server = fresh_server()
    wm = fresh_wm(server)
    wm.process_pending()
    counted("bitmap_region")
    counted("region_bitmap")
    app = OClock(server, ["oclock"])
    wm.process_pending()
    frame = wm.managed[app.wid].frame
    report("T7: SHAPE conversions for one managed oclock", [
        f"bitmap -> bands: {calls['bitmap_region']}",
        f"bands -> bitmap: {calls['region_bitmap']}",
    ])
    assert server.window_is_shaped(frame)
    assert server.shape_query(frame).area() == server.shape_query(app.wid).area()
    assert 1 <= calls["bitmap_region"] <= 2
    assert calls["region_bitmap"] == 0


def test_t7_offscreen_frame_guard(monkeypatch):
    """swm builds a frame's whole window tree unmapped and then maps the
    frame once.  Managing an xterm, and then a transient dialog, each
    runs two pointer hit tests (the frame's map and its raise) and one
    exposure pass, the frame's; the frame's MapNotify follows that of
    every window inside it.  Mapping the frame before its decoration
    is built costs a hit test and an exposure pass per decoration
    window (26 and 10 for a dialog), and fails here."""
    server = fresh_server()
    wm = fresh_wm(server)
    wm.process_pending()
    hit_tests, exposed, mapped = [], [], []

    def logged(name, log):
        inner = getattr(XServer, name)

        def wrapper(self, *args):
            log.append(args[0])
            return inner(self, *args)
        monkeypatch.setattr(XServer, name, wrapper)

    logged("_window_at", hit_tests)
    logged("_expose_tree", exposed)
    logged("_do_map", mapped)  # each call sends one MapNotify

    def manage(launch):
        for log in (hit_tests, exposed, mapped):
            log.clear()
        wid = launch()
        wm.process_pending()
        managed = wm.managed[wid]
        frame = server.window(managed.frame)
        before_frame = set(mapped[:mapped.index(frame)])
        inside = {w for w in mapped if frame.is_ancestor_of(w)}
        decoration = {
            server.window(obj.window)
            for obj in managed.decoration.iter_tree()
            if obj.window not in (None, managed.frame)
        }
        assert decoration and decoration <= inside <= before_frame
        return wid, len(hit_tests), list(exposed), frame

    dialogs = ClientConnection(server, "dialog")

    def open_dialog():
        wid = dialogs.create_window(
            dialogs.root_window(0), 300, 200, 240, 120, border_width=1,
            event_mask=EventMask.StructureNotify,
        )
        icccm.set_wm_class(dialogs, wid, "dialog", "Toolkit")
        icccm.set_wm_name(dialogs, wid, "dialog")
        icccm.set_wm_transient_for(dialogs, wid, term)
        dialogs.map_window(wid)
        return wid

    term, term_hits, term_exposed, term_frame = manage(
        lambda: XTerm(server, ["xterm", "-geometry", "80x24+100+100"]).wid
    )
    _, dialog_hits, dialog_exposed, dialog_frame = manage(open_dialog)
    report("T7: one manage, built off-screen", [
        f"xterm:  hit tests {term_hits}, exposure passes {len(term_exposed)}",
        f"dialog: hit tests {dialog_hits}, "
        f"exposure passes {len(dialog_exposed)}",
    ])
    assert (term_hits, term_exposed) == (2, [term_frame])
    assert (dialog_hits, dialog_exposed) == (2, [dialog_frame])


def test_t7_relayout_work_guard(monkeypatch, tmp_path):
    """One move+resize ConfigureRequest from an OpenLook+ xterm (resize
    corners on) costs the server exactly the configures that move
    something: the client's own (redirected), the client's resize, one
    move+resize of the frame, the three objects whose rect changed
    (``pulldown`` stays put) and the three corners that moved (the
    top-left one does not, and none is restacked).  The WM reads no
    geometry for a client configure or a WM move, and one for a launch.
    Counted by wrapping `XServer.configure_window` and the WM's
    `ClientConnection.get_geometry` from outside."""
    server = fresh_server()
    wm = fresh_wm(server, vdesk="3000x2400",
                  places_path=str(tmp_path / "places"))
    counts = {"configure_window": 0, "wm_get_geometry": 0}
    configure_inner = XServer.configure_window
    geometry_inner = ClientConnection.get_geometry

    def counted_configure(self, *args, **kwargs):
        counts["configure_window"] += 1
        return configure_inner(self, *args, **kwargs)

    def counted_geometry(self, wid):
        if self is wm.conn:
            counts["wm_get_geometry"] += 1
        return geometry_inner(self, wid)

    monkeypatch.setattr(XServer, "configure_window", counted_configure)
    monkeypatch.setattr(ClientConnection, "get_geometry", counted_geometry)

    term = XTerm(server, ["xterm", "-geometry", "200x120+100+100"])
    wm.process_pending()
    managed = wm.managed[term.wid]
    assert managed.resize_corners
    launch_reads = counts["wm_get_geometry"]

    counts.update(configure_window=0, wm_get_geometry=0)
    stats = server.stats()
    notifies = stats.get("delivered", type="ConfigureNotify")
    term.move_resize(300, 250, 260, 180)
    wm.process_pending()
    configures = counts["configure_window"]
    notifies = stats.get("delivered", type="ConfigureNotify") - notifies
    configure_reads = counts["wm_get_geometry"]

    counts.update(wm_get_geometry=0)
    wm.move_managed_to(managed, 40, 30)
    move_reads = counts["wm_get_geometry"]
    report("T7: work of one client move+resize (OpenLook+ xterm)", [
        f"server configure_window calls: {configures}",
        f"ConfigureNotify delivered: {notifies}",
        f"WM get_geometry: launch {launch_reads},"
        f" configure {configure_reads}, WM move {move_reads}",
    ])
    assert (configures, notifies) == (9, 4)
    assert (launch_reads, configure_reads, move_reads) == (1, 0, 0)
    assert wm_consistency_problems(wm) == []  # the model kept up
