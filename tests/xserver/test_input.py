"""Pointer/keyboard dispatch, propagation, crossings, and grabs."""

import pytest

import repro.xserver.events as ev
from repro.xserver import ClientConnection, EventMask, NONE, XServer
from repro.xserver.input import ANY_MODIFIER


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


class TestPointerDispatch:
    def test_button_press_to_selecting_window(self, server, conn):
        wid = mapped_window(conn, x=10, y=10, event_mask=EventMask.ButtonPress)
        server.motion(50, 50)
        conn.events()
        server.button_press(1)
        presses = conn.flush_events(ev.ButtonPress)
        assert len(presses) == 1
        press = presses[0]
        assert press.window == wid
        assert (press.x, press.y) == (40, 40)
        assert (press.x_root, press.y_root) == (50, 50)
        assert press.button == 1
        server.button_release(1)

    def test_event_propagates_to_ancestor(self, server, conn):
        outer = mapped_window(conn, w=300, h=300, event_mask=EventMask.ButtonPress)
        inner = mapped_window(conn, parent=outer, x=10, y=10, w=50, h=50)
        server.motion(20, 20)
        conn.events()
        server.button_press(1)
        presses = conn.flush_events(ev.ButtonPress)
        assert presses[0].window == outer
        assert presses[0].subwindow == inner
        server.button_release(1)

    def test_do_not_propagate_blocks(self, server, conn):
        outer = mapped_window(conn, w=300, h=300, event_mask=EventMask.ButtonPress)
        inner = mapped_window(conn, parent=outer, x=10, y=10, w=50, h=50)
        conn.change_window_attributes(
            inner, do_not_propagate_mask=EventMask.ButtonPress
        )
        server.motion(20, 20)
        conn.events()
        server.button_press(1)
        assert not conn.flush_events(ev.ButtonPress)
        server.button_release(1)

    def test_release_reports_button_in_state(self, server, conn):
        wid = mapped_window(conn, event_mask=EventMask.ButtonRelease)
        server.motion(50, 50)
        server.button_press(2)
        server.button_release(2)
        releases = conn.flush_events(ev.ButtonRelease)
        assert releases and releases[0].state & ev.BUTTON2_MASK

    def test_motion_events_coalesce_by_default(self, server, conn):
        """Motion compression: an undrained run of MotionNotify on one
        window collapses to the latest event (X11 semantics)."""
        wid = mapped_window(conn, event_mask=EventMask.PointerMotion)
        server.motion(10, 10)
        server.motion(20, 20)
        motions = conn.flush_events(ev.MotionNotify)
        assert len(motions) == 1
        assert (motions[0].x_root, motions[0].y_root) == (20, 20)

    def test_motion_events_uncoalesced_on_opt_out(self, server, conn):
        conn.set_coalescing(False)
        wid = mapped_window(conn, event_mask=EventMask.PointerMotion)
        server.motion(10, 10)
        server.motion(20, 20)
        motions = conn.flush_events(ev.MotionNotify)
        assert len(motions) == 2

    def test_pointer_clamped_to_screen(self, server, conn):
        server.motion(5000, 5000)
        assert server.pointer.x == 999 and server.pointer.y == 799


class TestCrossings:
    def test_enter_leave_between_siblings(self, server, conn):
        a = mapped_window(conn, x=0, y=0, w=100, h=100,
                          event_mask=EventMask.EnterWindow | EventMask.LeaveWindow)
        b = mapped_window(conn, x=200, y=0, w=100, h=100,
                          event_mask=EventMask.EnterWindow | EventMask.LeaveWindow)
        server.motion(50, 50)
        conn.events()
        server.motion(250, 50)
        kinds = [(e.type_name, e.window) for e in conn.events()
                 if isinstance(e, (ev.EnterNotify, ev.LeaveNotify))]
        assert ("LeaveNotify", a) in kinds
        assert ("EnterNotify", b) in kinds

    def test_enter_detail_inferior(self, server, conn):
        outer = mapped_window(conn, w=300, h=300,
                              event_mask=EventMask.LeaveWindow)
        inner = mapped_window(conn, parent=outer, x=100, y=100, w=50, h=50,
                              event_mask=EventMask.EnterWindow)
        server.motion(10, 10)
        conn.events()
        server.motion(120, 120)
        enters = conn.flush_events(ev.EnterNotify)
        assert enters and enters[0].detail == ev.NOTIFY_ANCESTOR
        leaves = [e for e in conn._queue if isinstance(e, ev.LeaveNotify)]

    def test_unmap_under_pointer_triggers_crossing(self, server, conn):
        top = mapped_window(conn, x=0, y=0, w=100, h=100)
        server.motion(50, 50)
        under = conn.root_window()
        conn.select_input(under, EventMask.EnterWindow)
        conn.events()
        conn.unmap_window(top)
        enters = conn.flush_events(ev.EnterNotify)
        assert enters and enters[0].window == under

    def test_reparent_with_redirected_remap_leaves_window(self, server, conn):
        """Reparenting a mapped window under the pointer unmaps it; when
        the re-map goes to the window manager instead, the pointer
        window falls back to whatever is now under it."""
        wm = ClientConnection(server, "wm")
        wm.select_input(wm.root_window(), EventMask.SubstructureRedirect)
        holder = mapped_window(conn, x=0, y=0, w=200, h=200,
                               override_redirect=True)
        w = mapped_window(conn, parent=holder, x=20, y=20, w=50, h=50,
                          event_mask=EventMask.LeaveWindow)
        conn.warp_pointer(w, 5, 5)
        assert server.pointer.window.id == w
        conn.events()
        conn.reparent_window(w, conn.root_window(), 10, 10)
        assert not server.window(w).mapped
        assert any(isinstance(e, ev.MapRequest) for e in wm.events())
        assert server.pointer.window.id == holder
        leaves = conn.flush_events(ev.LeaveNotify)
        assert [e.window for e in leaves] == [w]


class TestKeyboard:
    def test_key_to_pointer_window_with_pointer_root_focus(self, server, conn):
        wid = mapped_window(conn, event_mask=EventMask.KeyPress)
        server.motion(50, 50)
        server.key_press("Up")
        presses = conn.flush_events(ev.KeyPress)
        assert presses and presses[0].keysym == "Up"
        server.key_release("Up")

    def test_key_to_explicit_focus(self, server, conn):
        focused = mapped_window(conn, x=0, y=0, w=50, h=50,
                                event_mask=EventMask.KeyPress)
        other = mapped_window(conn, x=500, y=500, w=50, h=50)
        conn.set_input_focus(focused)
        server.motion(520, 520)  # pointer elsewhere
        conn.events()
        server.key_press("a")
        presses = conn.flush_events(ev.KeyPress)
        assert presses and presses[0].window == focused
        server.key_release("a")

    def test_focus_none_swallows_keys(self, server, conn):
        wid = mapped_window(conn, event_mask=EventMask.KeyPress)
        conn.set_input_focus(NONE)
        server.motion(50, 50)
        conn.events()
        server.key_press("a")
        assert not conn.flush_events(ev.KeyPress)
        server.key_release("a")

    def test_modifier_state(self, server, conn):
        wid = mapped_window(conn, event_mask=EventMask.KeyPress)
        server.motion(50, 50)
        server.key_press("Shift_L")
        conn.events()
        server.key_press("a")
        presses = conn.flush_events(ev.KeyPress)
        assert presses and presses[0].state & ev.SHIFT_MASK
        server.key_release("a")
        server.key_release("Shift_L")

    def test_focus_events(self, server, conn):
        a = mapped_window(conn, event_mask=EventMask.FocusChange)
        b = mapped_window(conn, x=200, y=0, event_mask=EventMask.FocusChange)
        conn.set_input_focus(a)
        conn.set_input_focus(b)
        kinds = [(e.type_name, e.window) for e in conn.events()
                 if isinstance(e, (ev.FocusIn, ev.FocusOut))]
        assert ("FocusIn", a) in kinds
        assert ("FocusOut", a) in kinds
        assert ("FocusIn", b) in kinds


class TestGrabs:
    def test_passive_button_grab_activates(self, server, conn):
        wm = ClientConnection(server, "wm")
        target = mapped_window(conn, x=0, y=0, w=200, h=200)
        wm.grab_button(
            conn.root_window(), 1, ANY_MODIFIER,
            EventMask.ButtonPress | EventMask.ButtonRelease | EventMask.PointerMotion,
        )
        server.motion(50, 50)
        server.button_press(1)
        presses = wm.flush_events(ev.ButtonPress)
        assert presses and presses[0].window == conn.root_window()
        # While the grab is active, motion goes to the grab client.
        server.motion(60, 60)
        assert wm.flush_events(ev.MotionNotify)
        server.button_release(1)
        assert wm.flush_events(ev.ButtonRelease)
        # Grab ended: further motion no longer goes to wm.
        server.motion(70, 70)
        assert not wm.flush_events(ev.MotionNotify)

    def test_modifier_specific_grab(self, server, conn):
        wm = ClientConnection(server, "wm")
        wm.grab_button(conn.root_window(), 1, ev.MOD1_MASK,
                       EventMask.ButtonPress)
        server.motion(50, 50)
        server.button_press(1)  # no modifier -> no grab
        assert not wm.flush_events(ev.ButtonPress)
        server.button_release(1)
        server.key_press("Alt_L")
        server.button_press(1)
        assert wm.flush_events(ev.ButtonPress)
        server.button_release(1)
        server.key_release("Alt_L")

    def test_active_pointer_grab(self, server, conn):
        wm = ClientConnection(server, "wm")
        grab_win = mapped_window(conn, x=0, y=0, w=10, h=10)
        status = wm.grab_pointer(grab_win, EventMask.ButtonPress)
        assert status == 0
        server.motion(500, 500)
        server.button_press(3)
        presses = wm.flush_events(ev.ButtonPress)
        assert presses and presses[0].window == grab_win
        server.button_release(3)
        wm.ungrab_pointer()
        server.button_press(3)
        assert not wm.flush_events(ev.ButtonPress)
        server.button_release(3)

    def test_second_grab_fails(self, server, conn):
        wm = ClientConnection(server, "wm")
        other = ClientConnection(server, "other")
        wid = mapped_window(conn)
        assert wm.grab_pointer(wid, EventMask.ButtonPress) == 0
        assert other.grab_pointer(wid, EventMask.ButtonPress) == 1
        wm.ungrab_pointer()

    def test_ungrab_button(self, server, conn):
        wm = ClientConnection(server, "wm")
        wm.grab_button(conn.root_window(), 1, ANY_MODIFIER, EventMask.ButtonPress)
        wm.ungrab_button(conn.root_window(), 1, ANY_MODIFIER)
        server.motion(50, 50)
        server.button_press(1)
        assert not wm.flush_events(ev.ButtonPress)
        server.button_release(1)

    def test_key_grab(self, server, conn):
        wm = ClientConnection(server, "wm")
        wm.grab_key(conn.root_window(), "F1", ANY_MODIFIER)
        server.key_press("F1")
        presses = wm.flush_events(ev.KeyPress)
        assert presses and presses[0].keysym == "F1"
        server.key_release("F1")


class TestWarpPointer:
    def test_warp_to_window(self, server, conn):
        wid = mapped_window(conn, x=300, y=300, w=100, h=100)
        conn.warp_pointer(wid, 10, 10)
        assert (server.pointer.x, server.pointer.y) == (310, 310)

    def test_relative_warp(self, server, conn):
        server.motion(100, 100)
        conn.warp_pointer(NONE, -50, 25)
        assert (server.pointer.x, server.pointer.y) == (50, 125)
