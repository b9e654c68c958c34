"""T4 — §6: panning mechanics and invariants.

Verifies, across desktop sizes up to the 32767x32767 X limit:

- panning never sends ConfigureNotify to desktop-resident clients,
- desktop coordinates are pan-invariant,
- sticky windows are pan-invariant in *screen* coordinates,

and benchmarks pan throughput vs population.
"""

import pytest

import repro.xserver.events as ev
from repro.clients import NaiveApp, XClock
from repro.xserver import ClientConnection, EventMask, MAX_WINDOW_SIZE

from .conftest import fresh_server, fresh_wm, report

DESKTOP_SIZES = ["2304x1800", "4608x3600", "16000x12000",
                 f"{MAX_WINDOW_SIZE}x{MAX_WINDOW_SIZE}"]


def test_t4_invariants_across_desktop_sizes():
    lines = [f"{'desktop':>16s} {'pans':>6s} {'cfg events':>11s} "
             f"{'desk-coord drift':>17s} {'sticky drift':>13s}"]
    for spec in DESKTOP_SIZES:
        server = fresh_server()
        wm = fresh_wm(server, vdesk=spec)
        app = NaiveApp(server, ["naivedemo", "-geometry", "+700+500"])
        clock = XClock(server, ["xclock", "-geometry", "+20+20"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        desk_before = tuple(wm.client_desktop_position(managed))
        sticky_before = clock.root_position()
        app.conn.events()

        vdesk = wm.screens[0].vdesk
        max_x, max_y = vdesk.max_pan()
        pans = 0
        for step in range(16):
            wm.pan_to(0, (step * max_x) // 16, (step * max_y) // 16)
            pans += 1
        wm.pan_to(0, 0, 0)
        pans += 1

        notifies = [e for e in app.conn.events()
                    if isinstance(e, ev.ConfigureNotify)]
        desk_after = tuple(wm.client_desktop_position(managed))
        sticky_after = clock.root_position()
        drift = (desk_after[0] - desk_before[0],
                 desk_after[1] - desk_before[1])
        sticky_drift = (sticky_after[0] - sticky_before[0],
                        sticky_after[1] - sticky_before[1])
        lines.append(
            f"{spec:>16s} {pans:>6d} {len(notifies):>11d} "
            f"{str(drift):>17s} {str(sticky_drift):>13s}"
        )
        assert notifies == []        # §6.3: no events on pan
        assert drift == (0, 0)       # desktop coords pan-invariant
        assert sticky_drift == (0, 0)  # §6.2: stuck to the glass
    report("T4: panning invariants vs desktop size", lines)


def test_t4_scrollbar_style_edge_pans():
    """Panning via repeated f.pan steps (what scrollbars bind to)."""
    server = fresh_server()
    wm = fresh_wm(server, vdesk="3000x2400")
    from repro.core.bindings import FunctionCall

    for _ in range(10):
        wm.execute(FunctionCall("pan", "100 0"))
    vdesk = wm.screens[0].vdesk
    assert vdesk.pan_x == 1000
    for _ in range(100):
        wm.execute(FunctionCall("pan", "100 0"))
    assert vdesk.pan_x == 3000 - 1152  # clamped at the desktop edge


def test_t4_pan_sweep_coalescing_guard():
    """Benchmark guard for the event pipeline: with coalescing on (the
    default), an undrained pan sweep plus pointer sweep must deliver at
    most half the raw ConfigureNotify/MotionNotify volume the server
    produced — measured via ``server.stats()``."""
    server = fresh_server()
    wm = fresh_wm(server, vdesk="8000x6000")
    vdesk_win = wm.screens[0].vdesk.window
    watcher = ClientConnection(server, "watcher")
    # Watch the Virtual Desktop window itself: a pan is one
    # ConfigureWindow on it, so each pan produces one ConfigureNotify.
    watcher.select_input(vdesk_win, EventMask.StructureNotify)
    # An override-redirect overlay (ignored by the WM) to soak up the
    # pointer sweep as MotionNotify.
    overlay = watcher.create_window(
        watcher.root_window(), 0, 0, 1152, 900,
        override_redirect=True, event_mask=EventMask.PointerMotion,
    )
    watcher.map_window(overlay)
    watcher.events()
    stats = server.stats()
    stats.reset()

    steps = 64
    for step in range(steps):
        wm.pan_to(0, (step * 4800) // steps, (step * 3000) // steps)
    for step in range(steps):
        server.motion(10 + (step * 17) % 1100, 10 + (step * 11) % 880)

    cid = watcher.client_id

    def raw(type_name):
        """Events produced for the watcher: delivered + coalesced."""
        return (stats.get("delivered", type=type_name, client=cid)
                + stats.get("coalesced", type=type_name, client=cid))

    raw_cfg = raw("ConfigureNotify")
    raw_motion = raw("MotionNotify")
    assert raw_cfg >= steps // 2        # the sweep really generated a flood
    assert raw_motion >= steps // 2
    delivered_cfg = stats.get("delivered", type="ConfigureNotify", client=cid)
    delivered_motion = stats.get("delivered", type="MotionNotify", client=cid)
    assert delivered_cfg <= raw_cfg / 2
    assert delivered_motion <= raw_motion / 2
    # What the watcher drains is exactly what was counted as delivered.
    drained = watcher.events()
    assert sum(isinstance(e, ev.ConfigureNotify) for e in drained) == delivered_cfg
    assert sum(isinstance(e, ev.MotionNotify) for e in drained) == delivered_motion
    report(
        "T4: pan sweep coalescing guard",
        [f"{'event':>16s} {'raw':>6s} {'delivered':>10s}",
         f"{'ConfigureNotify':>16s} {raw_cfg:>6d} {delivered_cfg:>10d}",
         f"{'MotionNotify':>16s} {raw_motion:>6d} {delivered_motion:>10d}"],
    )


@pytest.mark.benchmark(group="t4")
@pytest.mark.parametrize("windows", [0, 8, 32])
def test_t4_pan_throughput(benchmark, windows):
    """Pan cost must not grow with window population: a pan is one
    ConfigureWindow on the big window (§6's design point)."""
    server = fresh_server()
    wm = fresh_wm(server, vdesk="8000x6000")
    for index in range(windows):
        NaiveApp(
            server,
            ["naivedemo", "-geometry",
             f"+{(index % 8) * 900 + 50}+{(index // 8) * 1200 + 50}"],
        )
    wm.process_pending()
    state = {"step": 0}

    def pan_once():
        state["step"] = (state["step"] + 7) % 4800
        wm.pan_to(0, state["step"], state["step"] // 2)

    benchmark(pan_once)
