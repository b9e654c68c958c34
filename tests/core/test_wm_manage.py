"""Managing clients: decoration, reparenting, ICCCM compliance."""

import pytest

import repro.xserver.events as ev
from repro import icccm
from repro.clients import NaiveApp, OClock, XClock, XTerm
from repro.core.wm import SWM_ROOT_PROPERTY, Swm
from repro.icccm.hints import ICONIC_STATE, NORMAL_STATE, WITHDRAWN_STATE


class TestManage:
    def test_map_request_triggers_manage(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        assert app.wid in wm.managed

    def test_client_reparented_into_frame(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        _, parent, _ = app.conn.query_tree(app.wid)
        assert parent != app.conn.root_window()
        # The frame is an ancestor of the client.
        frame_window = server.window(managed.frame)
        client_window = server.window(app.wid)
        assert frame_window.is_ancestor_of(client_window)

    def test_client_is_mapped_and_viewable(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        assert server.window(app.wid).viewable

    def test_decoration_panel_from_template(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert managed.decoration_name == "openLook"
        # The Figure 1 objects exist.
        for name in ("pulldown", "name", "nail", "client"):
            assert managed.object_named(name) is not None

    def test_name_button_shows_wm_name(self, server, wm):
        app = XTerm(server, ["xterm", "-title", "my shell"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        name_button = managed.object_named("name")
        assert name_button.display_label() == "my shell"

    def test_wm_state_set(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        state = icccm.get_wm_state(app.conn, app.wid)
        assert state is not None and state.state == NORMAL_STATE

    def test_swm_root_property_set(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        prop = app.conn.get_property(app.wid, SWM_ROOT_PROPERTY)
        assert prop is not None
        # Without a virtual desktop the effective root is the real root.
        assert prop.data[0] == app.conn.root_window()

    def test_override_redirect_not_managed(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        popup = app.popup_at_offset(10, 10)
        wm.process_pending()
        assert popup not in wm.managed

    def test_synthetic_configure_sent(self, server, wm):
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        wm.process_pending()
        notifies = [
            e for e in app.conn.events()
            if isinstance(e, ev.ConfigureNotify) and e.send_event
        ]
        assert notifies
        assert (notifies[-1].x, notifies[-1].y) == (100, 100)

    def test_adopt_existing_windows(self, server, db):
        # Client maps before the WM starts.
        app = XTerm(server, ["xterm", "-geometry", "+50+50"])
        assert server.window(app.wid).mapped
        wm = Swm(server, db)
        assert app.wid in wm.managed
        assert server.window(app.wid).viewable

    def test_client_destroyed_unmanages(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        frame = wm.managed[app.wid].frame
        app.quit()
        wm.process_pending()
        assert app.wid not in wm.managed
        assert not wm.conn.window_exists(frame)

    def test_client_withdraw_unmanages(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        app.conn.unmap_window(app.wid)
        wm.process_pending()
        assert app.wid not in wm.managed
        # Back on the root, withdrawn.
        _, parent, _ = app.conn.query_tree(app.wid)
        assert parent == app.conn.root_window()
        state = icccm.get_wm_state(app.conn, app.wid)
        assert state.state == WITHDRAWN_STATE

    def test_iconic_start(self, server, wm):
        app = XTerm(server, ["xterm", "-iconic"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert managed.state == ICONIC_STATE
        assert managed.icon is not None
        assert not server.window(managed.frame).mapped

    def test_wm_name_change_updates_button(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        app.set_title("new title")
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert managed.object_named("name").display_label() == "new title"
        assert managed.name == "new title"


class TestConfigureRequests:
    def test_client_resize_honoured(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        app.conn.resize_window(app.wid, 6 * 100 + 16, 13 * 30 + 16)
        wm.process_pending()
        _, _, width, height, _ = app.conn.get_geometry(app.wid)
        assert (width, height) == (6 * 100 + 16, 13 * 30 + 16)

    def test_resize_respects_increments(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        app.conn.resize_window(app.wid, 617, 413)  # not on the grid
        wm.process_pending()
        _, _, width, height, _ = app.conn.get_geometry(app.wid)
        assert (width - 16) % 6 == 0
        assert (height - 16) % 13 == 0

    def test_frame_grows_with_client(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        before = wm.frame_rect(managed)
        app.conn.resize_window(app.wid, 6 * 120 + 16, 13 * 40 + 16)
        wm.process_pending()
        after = wm.frame_rect(managed)
        assert after.width > before.width
        assert after.height > before.height

    def test_client_move_request(self, server, wm):
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        wm.process_pending()
        app.conn.move_window(app.wid, 300, 250)
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert tuple(wm.client_desktop_position(managed)) == (300, 250)

    def test_move_request_gets_synthetic_notify(self, server, wm):
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        wm.process_pending()
        app.conn.events()
        app.conn.move_window(app.wid, 300, 250)
        wm.process_pending()
        notifies = [
            e for e in app.conn.events()
            if isinstance(e, ev.ConfigureNotify) and e.send_event
        ]
        assert notifies and (notifies[-1].x, notifies[-1].y) == (300, 250)

    def test_configure_request_gets_one_final_synthetic_notify(
        self, server, wm
    ):
        """A move+resize request is answered by one synthetic
        ConfigureNotify carrying the final geometry, not one per step
        with a stale position first."""
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        app.conn.set_coalescing(False)
        wm.process_pending()
        app.conn.events()
        app.move_resize(300, 250, 400, 300)
        wm.process_pending()
        _, _, width, height, _ = app.conn.get_geometry(app.wid)
        notifies = [
            (e.x, e.y, e.width, e.height) for e in app.conn.events()
            if isinstance(e, ev.ConfigureNotify) and e.send_event
        ]
        assert notifies == [(300, 250, width, height)]
        managed = wm.managed[app.wid]
        assert tuple(wm.client_desktop_position(managed)) == (300, 250)

    def test_another_clients_request_on_a_frame_is_refused(
        self, server, wm
    ):
        """The WM alone places its frames: a ConfigureRequest for one
        from another client is not passed through behind the WM's
        window model."""
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        before = server.window(managed.frame).rect
        app.conn.move_window(managed.frame, 700, 500)
        wm.process_pending()
        assert server.window(managed.frame).rect == before
        assert wm.frame_rect(managed) == before

    @pytest.mark.parametrize("function", ["f.zoom", "f.hzoom", "f.vzoom"])
    def test_zoom_and_restore_send_one_notify_each(
        self, server, wm, function
    ):
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        app.conn.set_coalescing(False)
        wm.process_pending()
        managed = wm.managed[app.wid]
        for _ in range(2):  # zoom, then restore
            app.conn.events()
            wm.execute_string(f"{function}(XTerm)")
            wm.process_pending()
            position = wm.client_desktop_position(managed)
            _, _, width, height, _ = app.conn.get_geometry(app.wid)
            notifies = [
                (e.x, e.y, e.width, e.height) for e in app.conn.events()
                if isinstance(e, ev.ConfigureNotify) and e.send_event
            ]
            assert notifies == [(position.x, position.y, width, height)]
        assert not managed.zoomed

    def test_raise_request(self, server, wm):
        a = XTerm(server, ["xterm"])
        b = XClock(server, ["xclock"])
        wm.process_pending()
        a.conn.raise_window(a.wid)
        wm.process_pending()
        # a's frame is now above b's frame.
        ma, mb = wm.managed[a.wid], wm.managed[b.wid]
        parent = server.window(ma.frame).parent
        if server.window(mb.frame).parent is parent:
            children = [c.id for c in parent.children]
            assert children.index(ma.frame) > children.index(mb.frame)


class TestShapedClients:
    def test_shaped_client_gets_shaped_decoration(self, server, wm):
        """§5.1: swm*shaped*decoration: shapeit — oclock shows up
        without visible decoration."""
        app = OClock(server, ["oclock"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert managed.shaped
        assert managed.decoration_name == "shapeit"
        # The frame is shaped to the client's disc.
        assert wm.conn.window_is_shaped(managed.frame)

    def test_unshaped_client_normal_decoration(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert not managed.shaped
        assert not wm.conn.window_is_shaped(managed.frame)

    def test_shape_change_reshapes_frame(self, server, wm):
        from repro.xserver.bitmap import Bitmap

        app = OClock(server, ["oclock"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        area_before = server.shape_query(managed.frame).area()
        app.conn.shape_window(app.wid, Bitmap.disc(60))
        wm.process_pending()
        area_after = server.shape_query(managed.frame).area()
        assert area_after < area_before


class TestWmLifecycle:
    def test_quit_releases_clients(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        wm.quit()
        assert server.window(app.wid).mapped
        _, parent, _ = app.conn.query_tree(app.wid)
        assert parent == app.conn.root_window()

    def test_wm_crash_save_set_protects_clients(self, server, wm):
        """Even without a clean quit, save-sets keep clients alive."""
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        wm.conn.close()  # simulated crash
        assert app.conn.window_exists(app.wid)
        assert server.window(app.wid).mapped

    def test_restart_remanages(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        old_frame = wm.managed[app.wid].frame
        wm.restart()
        assert app.wid in wm.managed
        assert wm.managed[app.wid].frame != old_frame

    def test_two_wms_rejected(self, server, wm, db):
        from repro.xserver import BadAccess

        with pytest.raises(BadAccess):
            Swm(server, db)


class TestDefaultConfiguration:
    def test_empty_db_loads_default_template(self, server):
        wm = Swm(server)
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        assert wm.managed[app.wid].decoration_name == "default"

    def test_specific_decoration_resource(self, server, db):
        """§3: per-class decoration via specific resources."""
        db.put("swm*xterm.xterm.decoration", "shapeit")
        wm = Swm(server, db)
        term = XTerm(server, ["xterm"])
        clock = NaiveApp(server, ["naivedemo"])
        wm.process_pending()
        assert wm.managed[term.wid].decoration_name == "shapeit"
        assert wm.managed[clock.wid].decoration_name == "openLook"

    def test_decoration_none(self, server, db):
        db.put("swm*xterm.xterm.decoration", "none")
        wm = Swm(server, db)
        term = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[term.wid]
        assert managed.decoration_name == ""
        # Bare frame: exactly the client size.
        frame = wm.frame_rect(managed)
        _, _, cw, ch, _ = term.conn.get_geometry(term.wid)
        assert (frame.width, frame.height) == (cw, ch)
