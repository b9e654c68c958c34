"""Icons, icon appearance panels, root icons, icon holders (§4.1.2–4.1.5)."""

import pytest

from repro import icccm
from repro.clients import XBiff, XClock, XLoad, XTerm
from repro.core.icons import IconHolder
from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.icccm.hints import ICONIC_STATE
from repro.testing import wm_consistency_problems
from repro.xserver.errors import BadWindow
from repro.xserver.geometry import Size


def iconified(server, wm, app):
    wm.process_pending()
    managed = wm.managed[app.wid]
    wm.iconify(managed)
    return managed


class TestIconAppearance:
    def test_icon_panel_from_template(self, server, wm):
        """The Xicon panel: iconimage + iconname buttons (§4.1.2)."""
        app = XTerm(server, ["xterm"])
        managed = iconified(server, wm, app)
        icon = managed.icon
        assert icon.panel.find("iconimage") is not None
        assert icon.panel.find("iconname") is not None

    def test_iconname_shows_wm_icon_name(self, server, wm):
        app = XTerm(server, ["xterm"])
        icccm.set_wm_icon_name(app.conn, app.wid, "shell")
        managed = iconified(server, wm, app)
        assert managed.icon.panel.find("iconname").display_label() == "shell"

    def test_default_image_is_xlogo(self, server, wm):
        """'the iconimage button will contain the image of the xlogo32
        bitmap file' when the client specifies no icon."""
        app = XTerm(server, ["xterm"])
        managed = iconified(server, wm, app)
        image_button = managed.icon.panel.find("iconimage")
        assert image_button.image is not None
        assert image_button.image.width == 32

    def test_icon_name_property_updates_icon(self, server, wm):
        app = XTerm(server, ["xterm"])
        managed = iconified(server, wm, app)
        icccm.set_wm_icon_name(app.conn, app.wid, "renamed")
        wm.process_pending()
        assert managed.icon.panel.find("iconname").display_label() == "renamed"

    def test_icon_window_mapped_frame_unmapped(self, server, wm):
        app = XTerm(server, ["xterm"])
        managed = iconified(server, wm, app)
        assert server.window(managed.icon.window).mapped
        assert not server.window(managed.frame).mapped

    def test_wm_state_iconic_with_icon_window(self, server, wm):
        app = XTerm(server, ["xterm"])
        managed = iconified(server, wm, app)
        state = icccm.get_wm_state(app.conn, app.wid)
        assert state.state == ICONIC_STATE
        assert state.icon_window == managed.icon.window

    def test_icon_position_hint_honoured(self, server, wm):
        app = XTerm(server, ["xterm"])
        from repro.icccm.hints import ICON_POSITION_HINT, WMHints

        icccm.set_wm_hints(
            app.conn, app.wid,
            WMHints(flags=ICON_POSITION_HINT, icon_x=77, icon_y=66),
        )
        wm.process_pending()
        managed = wm.managed[app.wid]
        wm.iconify(managed)
        x, y, _, _, _ = wm.conn.get_geometry(managed.icon.window)
        assert (x, y) == (77, 66)

    def test_deiconify_via_icon_button_click(self, server, wm):
        """Template binds <Btn1> on iconimage to f.deiconify."""
        app = XTerm(server, ["xterm"])
        managed = iconified(server, wm, app)
        button = managed.icon.panel.find("iconimage")
        origin = server.window(button.window).position_in_root()
        server.motion(origin.x + 2, origin.y + 2)
        server.button_press(1)
        server.button_release(1)
        wm.process_pending()
        assert managed.state != ICONIC_STATE
        assert server.window(managed.frame).mapped

    def test_client_message_iconifies(self, server, wm):
        """ICCCM WM_CHANGE_STATE from the client."""
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        app.request_iconify()
        wm.process_pending()
        assert wm.managed[app.wid].state == ICONIC_STATE

    def test_client_supplied_icon_image_flag(self, server, wm):
        from repro.icccm.hints import ICON_PIXMAP_HINT, WMHints

        app = XTerm(server, ["xterm"])
        icccm.set_wm_hints(
            app.conn, app.wid, WMHints(flags=ICON_PIXMAP_HINT, icon_pixmap=0x42)
        )
        managed = iconified(server, wm, app)
        image_button = managed.icon.panel.find("iconimage")
        assert "<" in image_button.display_label()


class TestRootIcons:
    def test_root_icons_created(self, server, db, tmp_path):
        """§4.1.3: icon appearance panels with no client."""
        db.put("swm*rootIcons", "trash")
        db.put("swm*panel.trash", "button iconimage +C+0 button iconname +C+1")
        db.put("swm*panel.trash.geometry", "+500+500")
        wm = Swm(server, db)
        sc = wm.screens[0]
        assert "trash" in sc.root_icons
        icon = sc.root_icons["trash"]
        assert icon.is_root_icon
        assert wm.conn.window_exists(icon.window)

    def test_root_icon_has_bindings(self, server, db):
        db.put("swm*rootIcons", "trash")
        db.put("swm*panel.trash", "button iconimage +C+0")
        db.put("swm*button.iconimage.bindings", "<Btn2> : f.beep")
        wm = Swm(server, db)
        icon = wm.screens[0].root_icons["trash"]
        button = icon.panel.find("iconimage")
        origin = server.window(button.window).position_in_root()
        server.motion(origin.x + 1, origin.y + 1)
        before = wm.beeps
        server.button_press(2)
        server.button_release(2)
        wm.process_pending()
        assert wm.beeps == before + 1


class TestIconHolders:
    @pytest.fixture
    def holder_db(self, db):
        db.put("swm*iconHolders", "terminals")
        db.put("swm*holder.terminals.classes", "XTerm")
        db.put("swm*holder.terminals.geometry", "+900+10")
        db.put("swm*holder.terminals.columns", "2")
        return db

    def test_holder_created(self, server, holder_db):
        wm = Swm(server, holder_db)
        holders = wm.screens[0].icon_holders
        assert len(holders) == 1
        assert holders[0].name == "terminals"

    def test_matching_class_goes_to_holder(self, server, holder_db):
        """§4.1.5: group all xterm icons in one panel."""
        wm = Swm(server, holder_db)
        term = XTerm(server, ["xterm"])
        load = XLoad(server, ["xload"])
        wm.process_pending()
        wm.iconify(wm.managed[term.wid])
        wm.iconify(wm.managed[load.wid])
        holder = wm.screens[0].icon_holders[0]
        assert len(holder.icons) == 1
        # The xterm icon's window is a child of the holder.
        _, parent, _ = wm.conn.query_tree(wm.managed[term.wid].icon.window)
        assert parent == holder.window
        # xload's icon is not in the holder.
        _, parent, _ = wm.conn.query_tree(wm.managed[load.wid].icon.window)
        assert parent != holder.window

    def test_grid_positions(self, server, holder_db):
        wm = Swm(server, holder_db)
        terms = [XTerm(server, ["xterm"]) for _ in range(3)]
        wm.process_pending()
        for term in terms:
            wm.iconify(wm.managed[term.wid])
        holder = wm.screens[0].icon_holders[0]
        positions = [holder.slot_position(i) for i in range(3)]
        # Two columns: third icon wraps to the second row.
        assert positions[0].y == positions[1].y
        assert positions[2].y > positions[0].y

    def test_deiconify_removes_from_holder_and_repacks(self, server, holder_db):
        wm = Swm(server, holder_db)
        terms = [XTerm(server, ["xterm"]) for _ in range(2)]
        wm.process_pending()
        for term in terms:
            wm.iconify(wm.managed[term.wid])
        holder = wm.screens[0].icon_holders[0]
        second_icon = wm.managed[terms[1].wid].icon
        wm.deiconify(wm.managed[terms[0].wid])
        assert len(holder.icons) == 1
        # The remaining icon repacked into slot 0.
        x, y, _, _, _ = wm.conn.get_geometry(second_icon.window)
        assert (x, y) == tuple(holder.slot_position(0))

    @pytest.mark.parametrize("failing", ["holder", "map"])
    def test_failed_icon_build_leaves_nothing_registered(
        self, server, holder_db, monkeypatch, failing
    ):
        """An X error in the holder's deposit or in the icon's map ends
        the build: the half-built icon is neither registered nor held,
        its window is gone, and the client stays in its normal state."""
        wm = Swm(server, holder_db)
        term = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[term.wid]
        holder = wm.screens[0].icon_holders[0]
        known = set(wm.icon_windows)
        objects = set(wm.object_windows)
        built = []
        if failing == "holder":
            refresh = IconHolder._refresh

            def failing_refresh(self):
                if not built:
                    built.extend(icon.window for icon in self.icons)
                    raise BadWindow(self.window)
                refresh(self)

            monkeypatch.setattr(IconHolder, "_refresh", failing_refresh)
        else:
            map_window = wm.conn.map_window

            def failing_map(wid):
                if wid in wm.icon_windows and wid not in known:
                    built.append(wid)
                    raise BadWindow(wid)
                return map_window(wid)

            monkeypatch.setattr(wm.conn, "map_window", failing_map)
        wm.iconify(managed)
        assert len(built) == 1  # the error hit the icon under build
        assert managed.icon is None
        assert managed.state != ICONIC_STATE
        assert set(wm.icon_windows) == known
        assert set(wm.object_windows) == objects
        assert holder.icons == []
        assert not wm.conn.window_exists(built[0])
        assert wm_consistency_problems(wm) == []

    def test_hide_when_empty(self, server, db):
        db.put("swm*iconHolders", "stash")
        db.put("swm*holder.stash.hideWhenEmpty", "True")
        wm = Swm(server, db)
        holder = wm.screens[0].icon_holders[0]
        assert not server.window(holder.window).mapped
        term = XTerm(server, ["xterm"])
        wm.process_pending()
        wm.iconify(wm.managed[term.wid])
        assert server.window(holder.window).mapped
        wm.deiconify(wm.managed[term.wid])
        assert not server.window(holder.window).mapped

    def test_size_to_fit(self, server, db):
        db.put("swm*iconHolders", "stash")
        db.put("swm*holder.stash.sizeToFit", "True")
        db.put("swm*holder.stash.columns", "4")
        wm = Swm(server, db)
        holder = wm.screens[0].icon_holders[0]
        terms = [XTerm(server, ["xterm"]) for _ in range(3)]
        wm.process_pending()
        for term in terms:
            wm.iconify(wm.managed[term.wid])
        _, _, width, _, _ = wm.conn.get_geometry(holder.window)
        assert width == 3 * holder.slot_size.width + 4

    def test_scrolling_mode(self, server, db):
        db.put("swm*iconHolders", "stash")
        db.put("swm*holder.stash.sizeToFit", "False")
        db.put("swm*holder.stash.columns", "1")
        wm = Swm(server, db)
        holder = wm.screens[0].icon_holders[0]
        terms = [XTerm(server, ["xterm"]) for _ in range(3)]
        wm.process_pending()
        for term in terms:
            wm.iconify(wm.managed[term.wid])
        first = wm.managed[terms[0].wid].icon
        y_before = wm.conn.get_geometry(first.window)[1]
        holder.scroll(holder.slot_size.height)
        y_after = wm.conn.get_geometry(first.window)[1]
        assert y_after == y_before - holder.slot_size.height
        holder.scroll(-10_000)
        assert wm.conn.get_geometry(first.window)[1] == y_before

    def test_empty_class_list_accepts_all(self, server, db):
        db.put("swm*iconHolders", "everything")
        wm = Swm(server, db)
        holder = wm.screens[0].icon_holders[0]
        assert holder.accepts("Whatever", "whatever")
