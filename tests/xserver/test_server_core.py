"""Core server semantics: redirect, reparent, configure, save-set."""

import pytest

import repro.xserver.events as ev
from repro.xserver import (
    BadAccess,
    BadMatch,
    BadValue,
    BadWindow,
    ClientConnection,
    EventMask,
    MAX_WINDOW_SIZE,
    NONE,
    XServer,
)


@pytest.fixture
def server():
    return XServer(screens=[(1152, 900, 8)])


@pytest.fixture
def wm(server):
    conn = ClientConnection(server, "wm")
    conn.select_input(
        conn.root_window(),
        EventMask.SubstructureRedirect | EventMask.SubstructureNotify,
    )
    conn.events()
    return conn


@pytest.fixture
def app(server):
    return ClientConnection(server, "app")


def make_window(conn, parent=None, x=10, y=10, w=100, h=80, **kwargs):
    parent = parent if parent is not None else conn.root_window()
    return conn.create_window(parent, x, y, w, h, **kwargs)


class TestCreateDestroy:
    def test_create_notify_to_parent(self, server, wm, app):
        wid = make_window(app)
        creates = wm.flush_events(ev.CreateNotify)
        assert len(creates) == 1
        assert creates[0].parent == wm.root_window()

    def test_zero_size_rejected(self, server, app):
        with pytest.raises(BadValue):
            app.create_window(app.root_window(), 0, 0, 0, 10)

    def test_oversize_rejected(self, server, app):
        with pytest.raises(BadValue):
            app.create_window(app.root_window(), 0, 0, MAX_WINDOW_SIZE + 1, 10)

    def test_max_size_allowed(self, server, app):
        wid = app.create_window(
            app.root_window(), 0, 0, MAX_WINDOW_SIZE, MAX_WINDOW_SIZE
        )
        assert server.window(wid).width == MAX_WINDOW_SIZE

    def test_destroy_removes_subtree(self, server, app):
        parent = make_window(app)
        child = make_window(app, parent=parent)
        app.destroy_window(parent)
        assert not app.window_exists(parent)
        assert not app.window_exists(child)

    def test_destroy_root_rejected(self, server, app):
        with pytest.raises(BadWindow):
            app.destroy_window(app.root_window())

    def test_destroy_notify_delivered(self, server, app):
        wid = make_window(app, event_mask=EventMask.StructureNotify)
        app.events()
        app.destroy_window(wid)
        kinds = [e.type_name for e in app.events()]
        assert "DestroyNotify" in kinds

    def test_destroy_subwindows(self, server, app):
        parent = make_window(app)
        child_a = make_window(app, parent=parent)
        child_b = make_window(app, parent=parent)
        app.destroy_subwindows(parent)
        assert app.window_exists(parent)
        assert not app.window_exists(child_a)
        assert not app.window_exists(child_b)


class TestMapRedirect:
    def test_map_redirected_to_wm(self, server, wm, app):
        wid = make_window(app)
        wm.events()
        assert app.map_window(wid) is False
        assert not server.window(wid).mapped
        requests = wm.flush_events(ev.MapRequest)
        assert len(requests) == 1
        assert requests[0].requestor == wid

    def test_override_redirect_not_intercepted(self, server, wm, app):
        wid = make_window(app, override_redirect=True)
        assert app.map_window(wid) is True
        assert server.window(wid).mapped
        assert not wm.flush_events(ev.MapRequest)

    def test_wm_own_map_not_intercepted(self, server, wm, app):
        wid = make_window(app)
        wm.events()
        assert wm.map_window(wid) is True
        assert server.window(wid).mapped

    def test_only_one_redirector(self, server, wm):
        other = ClientConnection(server, "wm2")
        with pytest.raises(BadAccess):
            other.select_input(
                other.root_window(), EventMask.SubstructureRedirect
            )

    def test_redirector_can_reselect(self, server, wm):
        wm.select_input(
            wm.root_window(),
            EventMask.SubstructureRedirect | EventMask.PropertyChange,
        )

    def test_redirect_released_on_clear(self, server, wm):
        wm.select_input(wm.root_window(), EventMask.NoEvent)
        other = ClientConnection(server, "wm2")
        other.select_input(other.root_window(), EventMask.SubstructureRedirect)

    def test_map_notify_on_map(self, server, app):
        wid = make_window(app, event_mask=EventMask.StructureNotify)
        app.map_window(wid)
        kinds = [e.type_name for e in app.events()]
        assert "MapNotify" in kinds

    def test_unmap_notify(self, server, app):
        wid = make_window(app, event_mask=EventMask.StructureNotify)
        app.map_window(wid)
        app.events()
        app.unmap_window(wid)
        kinds = [e.type_name for e in app.events()]
        assert "UnmapNotify" in kinds

    def test_expose_on_viewable_map(self, server, app):
        wid = make_window(app, event_mask=EventMask.Exposure)
        app.map_window(wid)
        assert app.flush_events(ev.Expose)


class TestConfigureRedirect:
    def test_configure_redirected(self, server, wm, app):
        wid = make_window(app)
        wm.events()
        assert app.move_window(wid, 50, 60) is False
        assert server.window(wid).x == 10
        requests = wm.flush_events(ev.ConfigureRequest)
        assert len(requests) == 1
        assert requests[0].x == 50 and requests[0].y == 60
        assert requests[0].value_mask == ev.CWX | ev.CWY

    def test_configure_applies_without_wm(self, server, app):
        wid = make_window(app)
        assert app.move_resize_window(wid, 5, 6, 70, 80) is True
        win = server.window(wid)
        assert (win.x, win.y, win.width, win.height) == (5, 6, 70, 80)

    def test_configure_notify_fields(self, server, app):
        wid = make_window(app, event_mask=EventMask.StructureNotify)
        app.events()
        app.move_window(wid, 42, 24)
        notifies = app.flush_events(ev.ConfigureNotify)
        assert notifies and notifies[-1].x == 42 and notifies[-1].y == 24

    def test_sibling_without_stackmode_rejected(self, server, app):
        a = make_window(app)
        b = make_window(app)
        with pytest.raises(BadMatch):
            app.configure_window(a, sibling=b)

    def test_restack_above_sibling(self, server, app):
        a = make_window(app)
        b = make_window(app)
        c = make_window(app)
        app.configure_window(a, sibling=b, stack_mode=ev.ABOVE)
        _, _, children = app.query_tree(app.root_window())
        assert children.index(a) == children.index(b) + 1

    @pytest.mark.parametrize("mode", [ev.ABOVE, ev.BELOW])
    def test_sibling_is_itself_rejected_untouched(self, server, app, mode):
        a = make_window(app)
        b = make_window(app)
        with pytest.raises(BadMatch):
            app.configure_window(a, x=99, sibling=a, stack_mode=mode)
        _, _, children = app.query_tree(app.root_window())
        assert children == [a, b]
        assert app.get_geometry(a)[0] == 10

    def test_bad_sibling_leaves_window_untouched(self, server, app):
        a = make_window(app)
        frame = make_window(app)
        nested = make_window(app, parent=frame)
        with pytest.raises(BadWindow):
            app.configure_window(a, x=99, sibling=0x7FFFFF, stack_mode=ev.ABOVE)
        with pytest.raises(BadMatch):
            app.configure_window(a, x=99, sibling=nested, stack_mode=ev.ABOVE)
        _, _, children = app.query_tree(app.root_window())
        assert children == [a, frame]
        assert app.get_geometry(a)[0] == 10

    def test_raise_lower(self, server, app):
        a = make_window(app)
        b = make_window(app)
        app.raise_window(a)
        _, _, children = app.query_tree(app.root_window())
        assert children[-1] == a
        app.lower_window(a)
        _, _, children = app.query_tree(app.root_window())
        assert children[0] == a

    def test_coordinates_out_of_range(self, server, app):
        wid = make_window(app)
        with pytest.raises(BadValue):
            app.move_window(wid, 40000, 0)

    def test_moving_parent_sends_no_configure_to_child(self, server, app):
        """The paper (§6.3): panning the desktop (moving the big window)
        generates no ConfigureNotify for the windows on it."""
        parent = make_window(app, w=500, h=500)
        child = make_window(app, parent=parent, event_mask=EventMask.StructureNotify)
        app.map_window(parent)
        app.map_window(child)
        app.events()
        app.move_window(parent, 200, 200)
        assert not app.flush_events(ev.ConfigureNotify)


class TestReparent:
    def test_reparent_moves_window(self, server, wm, app):
        wid = make_window(app)
        frame = make_window(wm, x=0, y=0, w=200, h=200)
        wm.reparent_window(wid, frame, 4, 20)
        _, parent, _ = app.query_tree(wid)
        assert parent == frame
        assert server.window(wid).x == 4

    def test_reparent_notify_to_window(self, server, wm, app):
        wid = make_window(app, event_mask=EventMask.StructureNotify)
        frame = make_window(wm, w=200, h=200)
        app.events()
        wm.reparent_window(wid, frame, 0, 0)
        notifies = app.flush_events(ev.ReparentNotify)
        assert notifies and notifies[0].parent == frame

    def test_reparent_mapped_window_remaps_via_redirect(self, server, wm, app):
        """Remapping after reparent goes through the redirect machinery
        when issued by a non-WM client; the WM's own remap applies."""
        wid = make_window(app)
        wm.events()
        wm.map_window(wid)
        frame = make_window(wm, w=200, h=200)
        wm.map_window(frame)
        wm.reparent_window(wid, frame, 0, 0)
        assert server.window(wid).mapped

    def test_reparent_to_descendant_rejected(self, server, app):
        a = make_window(app)
        b = make_window(app, parent=a)
        with pytest.raises(BadMatch):
            app.reparent_window(a, b, 0, 0)

    def test_reparent_root_rejected(self, server, app):
        with pytest.raises(BadMatch):
            app.reparent_window(app.root_window(), app.root_window(), 0, 0)

    def test_position_in_root_accumulates(self, server, wm, app):
        frame = make_window(wm, x=100, y=50, w=300, h=300, border_width=2)
        wid = make_window(app)
        wm.reparent_window(wid, frame, 10, 20)
        origin = server.window(wid).position_in_root()
        assert (origin.x, origin.y) == (100 + 2 + 10, 50 + 2 + 20)


class TestSaveSet:
    def test_save_set_survives_wm_death(self, server, wm, app):
        wid = make_window(app)
        wm.events()
        frame = make_window(wm, w=300, h=300)
        wm.add_to_save_set(wid)
        wm.reparent_window(wid, frame, 5, 5)
        wm.map_window(frame)
        wm.map_window(wid)
        wm.close()
        _, parent, _ = app.query_tree(wid)
        assert parent == app.root_window()
        assert server.window(wid).mapped
        assert not app.window_exists(frame)

    def test_non_save_set_frame_children_die_with_wm(self, server, wm, app):
        wid = make_window(app)
        frame = make_window(wm, w=300, h=300)
        wm.reparent_window(wid, frame, 5, 5)
        # No save-set insertion: the client window is destroyed along
        # with the frame subtree.
        wm.close()
        assert not app.window_exists(wid)

    def test_cannot_save_set_own_window(self, server, app):
        wid = make_window(app)
        with pytest.raises(BadMatch):
            app.add_to_save_set(wid)

    def test_save_set_delete(self, server, wm, app):
        wid = make_window(app)
        wm.add_to_save_set(wid)
        wm.remove_from_save_set(wid)
        frame = make_window(wm, w=300, h=300)
        wm.reparent_window(wid, frame, 5, 5)
        wm.close()
        assert not app.window_exists(wid)


class TestProperties:
    def test_property_notify(self, server, wm, app):
        wid = make_window(app)
        wm.select_input(wid, EventMask.PropertyChange)
        app.set_string_property(wid, "WM_NAME", "xclock")
        notifies = wm.flush_events(ev.PropertyNotify)
        assert notifies
        assert server.atoms.name(notifies[0].atom) == "WM_NAME"

    def test_get_string_property(self, server, app):
        wid = make_window(app)
        app.set_string_property(wid, "WM_NAME", "hello")
        assert app.get_string_property(wid, "WM_NAME") == "hello"

    def test_delete_property_notify_state(self, server, wm, app):
        wid = make_window(app)
        app.set_string_property(wid, "WM_NAME", "x")
        wm.select_input(wid, EventMask.PropertyChange)
        app.delete_property(wid, "WM_NAME")
        notifies = wm.flush_events(ev.PropertyNotify)
        assert notifies and notifies[0].state == ev.PROPERTY_DELETE

    def test_list_properties(self, server, app):
        wid = make_window(app)
        app.set_string_property(wid, "WM_NAME", "a")
        app.set_string_property(wid, "WM_ICON_NAME", "b")
        names = {server.atoms.name(a) for a in app.list_properties(wid)}
        assert names == {"WM_NAME", "WM_ICON_NAME"}


class TestQueries:
    def test_translate_coordinates(self, server, wm, app):
        frame = make_window(wm, x=100, y=100, w=300, h=300)
        wid = make_window(app)
        wm.reparent_window(wid, frame, 10, 20)
        x, y, child = app.translate_coordinates(wid, app.root_window(), 0, 0)
        assert (x, y) == (110, 120)

    def test_translate_finds_child(self, server, app):
        parent = make_window(app, x=0, y=0, w=500, h=500)
        child = make_window(app, parent=parent, x=50, y=50, w=100, h=100)
        app.map_window(parent)
        app.map_window(child)
        _, _, hit = app.translate_coordinates(
            app.root_window(), parent, 60, 60
        )
        assert hit == child

    def test_query_tree_order_is_stacking(self, server, app):
        a = make_window(app)
        b = make_window(app)
        _, _, children = app.query_tree(app.root_window())
        assert children == [a, b]

    def test_get_geometry(self, server, app):
        wid = make_window(app, x=7, y=8, w=70, h=80, border_width=3)
        assert app.get_geometry(wid) == (7, 8, 70, 80, 3)

    def test_window_attributes(self, server, app):
        wid = make_window(app, override_redirect=True)
        attrs = app.get_window_attributes(wid)
        assert attrs["override_redirect"] is True
        assert attrs["map_state"] == 0


class TestUnifiedHitTest:
    """translate_coordinates and query_pointer share one child hit-test:
    borders count as part of the window and SHAPE regions are honoured
    by both (they used to disagree — translate ignored SHAPE, pointer
    queries ignored borders)."""

    @pytest.fixture
    def shaped_child(self, server, app):
        from repro.xserver import ShapeRegion

        parent = make_window(app, x=0, y=0, w=500, h=500)
        child = make_window(app, parent=parent, x=50, y=50, w=100, h=100,
                            border_width=4)
        app.map_window(parent)
        app.map_window(child)
        # Only the left half of the child is part of its shape.
        region = ShapeRegion.from_rects(100, 100, [(0, 0, 50, 100)])
        server.window(child).shape = region
        server._refresh_pointer_window()
        return parent, child

    def both_hits(self, server, app, parent, x, y):
        """(translate child, query_pointer child) for parent-local x, y."""
        _, _, t_child = app.translate_coordinates(app.root_window(), parent, x, y)
        server.motion(x, y)  # parent at origin: parent-local == root
        q_child = app.query_pointer(parent)["child"]
        return t_child, q_child

    def test_agree_inside_shape(self, server, app, shaped_child):
        parent, child = shaped_child
        assert self.both_hits(server, app, parent, 60, 60) == (child, child)

    def test_agree_outside_shape(self, server, app, shaped_child):
        """In the rectangle but outside the SHAPE region: neither path
        reports the child."""
        parent, child = shaped_child
        assert self.both_hits(server, app, parent, 130, 60) == (NONE, NONE)

    def test_agree_on_border_of_unshaped(self, server, app):
        parent = make_window(app, x=0, y=0, w=500, h=500)
        child = make_window(app, parent=parent, x=50, y=50, w=100, h=100,
                            border_width=4)
        app.map_window(parent)
        app.map_window(child)
        # (48, 48) lies on the 4px border ring around the content
        # (content [50, 150), ring [46, 50)); (44, 44) is outside it.
        assert self.both_hits(server, app, parent, 48, 48) == (child, child)
        assert self.both_hits(server, app, parent, 44, 44) == (NONE, NONE)

    def test_shaped_border_clipped(self, server, app, shaped_child):
        """A shaped window's border is clipped to the shape: border
        pixels outside the region do not hit."""
        parent, child = shaped_child
        assert self.both_hits(server, app, parent, 48, 48) == (NONE, NONE)

    def test_window_at_honours_border(self, server, app):
        child = make_window(app, x=100, y=100, w=50, h=50, border_width=5)
        app.map_window(child)
        server.motion(97, 97)  # on the border
        assert server.pointer.window.id == child
        server.motion(90, 90)  # outside the border
        assert server.pointer.window.id == app.root_window()


class TestSendEvent:
    def test_send_event_with_mask(self, server, wm, app):
        wid = make_window(app)
        wm.select_input(wid, EventMask.StructureNotify)
        msg = ev.ClientMessage(window=wid, message_type=1, data=(1, 2, 3))
        app.send_event(wid, msg, EventMask.StructureNotify)
        got = wm.flush_events(ev.ClientMessage)
        assert got and got[0].send_event

    def test_send_event_zero_mask_goes_to_creator(self, server, wm, app):
        wid = make_window(app)
        msg = ev.ClientMessage(window=wid, message_type=1)
        wm.send_event(wid, msg)
        assert app.flush_events(ev.ClientMessage)


class TestReset:
    def test_reset_destroys_everything(self, server, wm, app):
        wid = make_window(app)
        server.reset()
        assert not server.windows.get(wid)
        assert server.generation == 2
        # Root survives.
        assert server.screens[0].root.mapped

    def test_reset_clears_root_properties(self, server, app):
        root = app.root_window()
        app.set_string_property(root, "SWM_RESTART_INFO", "data")
        server.reset()
        atom = server.atoms.intern("SWM_RESTART_INFO")
        assert server.screens[0].root.properties.get(atom) is None


class TestMultiScreen:
    def test_two_screens(self):
        server = XServer(screens=[(1152, 900, 8), (1024, 768, 1)])
        assert len(server.screens) == 2
        assert not server.screens[0].monochrome
        assert server.screens[1].monochrome

    def test_roots_are_distinct(self):
        server = XServer(screens=[(100, 100, 8), (200, 200, 8)])
        conn = ClientConnection(server)
        assert conn.root_window(0) != conn.root_window(1)

    def test_reparent_across_screens_rejected(self):
        server = XServer(screens=[(100, 100, 8), (200, 200, 8)])
        conn = ClientConnection(server)
        wid = conn.create_window(conn.root_window(0), 0, 0, 10, 10)
        with pytest.raises(BadMatch):
            conn.reparent_window(wid, conn.root_window(1), 0, 0)
