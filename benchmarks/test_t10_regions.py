"""T10 — region damage and batched execution on a crowded desktop.

Not a paper claim: an implementation benchmark for this repo's
simulated X server.  Two properties are pinned here:

- **batched configure storms** — a 256-window configure/motion storm
  issued through ``ClientConnection.batch()`` must beat the same storm
  issued request-by-request by >= 5x.  Unbatched, every configure pays
  the pointer-window refresh (an O(population) rebuild of the root's
  stacking/bounding-box index) plus per-request notify synthesis, so a
  storm is O(n^2); batched, mutation still runs per logical request
  but the refresh and the coalesced notifies happen once per flush.
- **incremental damage** — Expose generation is driven by the
  band-region clip cache (``Window.clip_region``): a fully occluded
  window gets *no* Expose at all, a partially covered one gets only
  its damaged rects (counted in ``server.stats()['batch']``), so
  expose traffic scales with visible area, not tree size.

Timing cases use pytest-benchmark (group ``t10``); the speedup and
damage guards are plain asserts so they hold under
``--benchmark-disable`` too.  The speedup's mechanism is also pinned by
count, with no timing noise: per flush of the batched storm, one
pointer refresh, one ConfigureNotify per window and no clip recomputed.  The nightly regression guard
(``tools/bench_guard.py``) tracks the t7/t10 benchmark means.
"""

import time

import pytest

from repro.xserver import ClientConnection, EventMask, XServer
from repro.xserver.batch import ActiveBatch
from repro.xserver.window import Window

from .conftest import fresh_server, report

STORM_WINDOWS = 256  # acceptance population for the speedup guard
STORM_ROUNDS = 4
BENCH_WINDOWS = 128  # lighter population for the nightly timing cases
BENCH_ROUNDS = 2


def populate_grid(server, count, width=64, height=48, select=False):
    """`count` mapped top-level windows tiled over the root with mild
    overlap — the shape of a crowded desktop mid auto-arrange."""
    conn = ClientConnection(server, "apps", coalesce=False)
    wids = []
    for i in range(count):
        wid = conn.create_window(
            server.screens[0].root.id,
            (i % 16) * 70, (i // 16) * 54,
            width, height,
            border_width=1,
        )
        if select:
            conn.select_input(
                wid, EventMask.StructureNotify | EventMask.Exposure
            )
        conn.map_window(wid)
        wids.append(wid)
    return conn, wids


def storm(conn, wids, rounds, batched):
    """The configure/motion storm: every window moves every round —
    auto-arrange, pan and restart replay all have this shape."""
    for step in range(1, rounds + 1):
        if batched:
            with conn.batch():
                for i, wid in enumerate(wids):
                    conn.move_window(wid, (i + step) % 900, (i * 3 + step) % 700)
        else:
            for i, wid in enumerate(wids):
                conn.move_window(wid, (i + step) % 900, (i * 3 + step) % 700)


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- timing cases (pytest-benchmark, group t10) -------------------------------


@pytest.mark.benchmark(group="t10")
@pytest.mark.parametrize("batched", [False, True], ids=["unbatched", "batched"])
def test_t10_configure_storm(benchmark, batched):
    """The storm both ways, for the nightly trend lines."""
    server = fresh_server()
    conn, wids = populate_grid(server, BENCH_WINDOWS)
    storm(conn, wids, 1, batched)  # warm the caches
    benchmark(storm, conn, wids, BENCH_ROUNDS, batched)


@pytest.mark.benchmark(group="t10")
def test_t10_expose_damage(benchmark):
    """Damage-clipped expose generation over an occlusion-heavy stack:
    map/unmap churn at the bottom of a pile re-exposes only what is
    actually visible."""
    server = fresh_server()
    conn, wids = populate_grid(server, 64, width=200, height=160, select=True)

    def churn():
        for wid in wids[:8]:  # the bottom of the pile: mostly occluded
            conn.unmap_window(wid)
            conn.map_window(wid)
        conn.events()

    churn()  # warm
    benchmark(churn)


# -- guards (plain asserts; run even with --benchmark-disable) ----------------


def test_t10_batched_storm_speedup():
    """Acceptance: >= 5x on the 256-window storm, batched vs unbatched,
    measured in the same run: three samples a side, interleaved
    (unbatched, batched, unbatched, ...) so that a slow spell of the
    host lands on both sides, and the best of each side compared."""
    server = fresh_server()
    conn, wids = populate_grid(server, STORM_WINDOWS)
    storm(conn, wids, 1, batched=False)  # warm both paths
    storm(conn, wids, 1, batched=True)

    samples = {False: [], True: []}
    for _ in range(3):
        for batched in (False, True):
            samples[batched].append(timed(
                lambda: storm(conn, wids, STORM_ROUNDS, batched=batched)))
    unbatched, batched = min(samples[False]), min(samples[True])
    speedup = unbatched / batched
    lines = [
        f"unbatched: {unbatched * 1000:8.2f} ms",
        f"batched:   {batched * 1000:8.2f} ms",
        f"speedup:   {speedup:8.2f}x  (floor: 5x)",
    ]
    report("T10: 256-window configure storm", lines)
    assert speedup >= 5.0, "\n".join(lines + [
        "samples in run order (ms): " + ", ".join(
            f"{side} {sample * 1000:.2f}"
            for pair in zip(samples[False], samples[True])
            for side, sample in zip(("unbatched", "batched"), pair))
    ])


def test_t10_batched_storm_work_guard(monkeypatch):
    """Per flush of the batched 256-window storm: one pointer refresh,
    one ConfigureNotify per window, and no clip recomputed (a move
    grows nothing, so nothing is exposed).  Counted by wrapping
    `ActiveBatch.flush`, `XServer._refresh_pointer_window` and
    `Window._compute_clip` from outside, and from the server's
    `delivered` series.  A refresh or notify per request instead of
    per flush, which is what the speedup above is made of, fails here
    by count."""
    server = fresh_server()
    conn, wids = populate_grid(server, STORM_WINDOWS, select=True)
    storm(conn, wids, 1, batched=True)  # warm
    conn.events()
    counts = {"flushes": 0, "refreshes": 0, "recomputes": 0}
    flush_inner = ActiveBatch.flush
    refresh_inner = XServer._refresh_pointer_window
    compute_inner = Window._compute_clip

    def counted_flush(self, server):
        counts["flushes"] += bool(self._pending)
        return flush_inner(self, server)

    def counted_refresh(self):
        counts["refreshes"] += 1
        return refresh_inner(self)

    def counted_compute(self, parent_clip):
        counts["recomputes"] += 1
        return compute_inner(self, parent_clip)

    monkeypatch.setattr(ActiveBatch, "flush", counted_flush)
    monkeypatch.setattr(XServer, "_refresh_pointer_window", counted_refresh)
    monkeypatch.setattr(Window, "_compute_clip", counted_compute)
    server.stats().reset()
    storm(conn, wids, STORM_ROUNDS, batched=True)
    flushes = counts["flushes"]
    notifies = server.stats().get("delivered", type="ConfigureNotify")
    report("T10: work per flush of the batched 256-window storm", [
        f"flushes: {flushes}",
        f"pointer refreshes: {counts['refreshes']}",
        f"ConfigureNotify sent: {notifies}",
        f"clip recomputes: {counts['recomputes']}",
    ])
    assert flushes == STORM_ROUNDS
    assert counts["refreshes"] == flushes
    assert notifies == STORM_WINDOWS * flushes
    assert counts["recomputes"] == 0


def test_t10_batch_counters():
    """The storm's coalescing is visible in server.stats()."""
    server = fresh_server()
    conn, wids = populate_grid(server, 32)
    server.stats().reset()
    with conn.batch():
        for step in range(4):
            for wid in wids:
                conn.move_window(wid, step, step)
    stats = server.stats()
    assert stats.get("batched") == 32 * 4
    # One surviving notify per window per flush: 3 of every 4 moves
    # coalesced away.
    assert stats.get("batch_coalesced") == 32 * 3


def test_t10_occluded_window_gets_no_expose():
    """A fully covered window generates no Expose on remap; a partially
    covered one gets only its damaged rects."""
    server = fresh_server()
    conn = ClientConnection(server, "app", coalesce=False)
    root = server.screens[0].root.id
    below = conn.create_window(root, 100, 100, 200, 150)
    conn.select_input(below, EventMask.Exposure)
    conn.map_window(below)

    # Full cover: border included (201x151 outer rect at 99,99).
    cover = conn.create_window(root, 99, 99, 220, 170)
    conn.map_window(cover)
    conn.events()
    conn.unmap_window(below)
    conn.map_window(below)
    assert not [e for e in conn.events() if type(e).__name__ == "Expose"]

    # Partial cover: only the right half peeks out.
    conn.move_window(cover, 0, 50)
    conn.resize_window(cover, 200, 300)
    conn.events()
    before = server.stats().get("damage_rects")
    conn.unmap_window(below)
    conn.map_window(below)
    exposes = [e for e in conn.events() if type(e).__name__ == "Expose"]
    assert exposes, "partially visible window must still get damage"
    damaged = server.stats().get("damage_rects") - before
    assert damaged == len(exposes)
    assert exposes[-1].count == 0
    # Every damage rect sits inside the window and outside the cover.
    for e in exposes:
        assert 0 <= e.x and e.x + e.width <= 200
        assert 0 <= e.y and e.y + e.height <= 150
        assert 100 + e.x + e.width > 200  # right of the cover's edge


def test_t10_damage_scales_with_visible_area():
    """Expose volume on a dense stack tracks visible rects, not
    population: remapping the bottom window of a 32-deep pile yields at
    most a handful of damage rects, never one per occluder."""
    server = fresh_server()
    conn = ClientConnection(server, "app", coalesce=False)
    root = server.screens[0].root.id
    bottom = conn.create_window(root, 0, 0, 400, 300)
    conn.select_input(bottom, EventMask.Exposure)
    conn.map_window(bottom)
    # A staircase of occluders marching off the bottom-right corner.
    for i in range(32):
        wid = conn.create_window(root, 8 * (i + 1), 6 * (i + 1), 400, 300)
        conn.map_window(wid)
    conn.events()
    server.stats().reset()
    conn.unmap_window(bottom)
    conn.map_window(bottom)
    exposes = [e for e in conn.events() if type(e).__name__ == "Expose"]
    # Visible: an L along the top/left edges — two bands, not 32.
    assert 1 <= len(exposes) <= 4
    assert server.stats().get("damage_rects") == len(exposes)
    visible_area = sum(e.width * e.height for e in exposes)
    assert visible_area < 400 * 300 // 4
