"""Canned clients: option parsing, ICCCM properties, behaviours."""

import pytest

from repro import icccm
from repro.clients import (
    APP_REGISTRY,
    CmdTool,
    CommandLineError,
    MultiWindowApp,
    OClock,
    XClock,
    XEyes,
    XTerm,
    launch_command,
    parse_xt_options,
    parse_xview_options,
)
from repro.icccm.hints import ICONIC_STATE, P_RESIZE_INC, US_POSITION, US_SIZE
from repro.xserver import XServer
from repro.xserver.bitmap import Bitmap


@pytest.fixture
def server():
    return XServer(screens=[(1152, 900, 8)])


class TestXtOptionParsing:
    def test_geometry(self):
        options = parse_xt_options(["xclock", "-geometry", "100x100+10+20"])
        geo = options["geometry"]
        assert (geo.width, geo.x) == (100, 10)

    def test_geom_alias(self):
        options = parse_xt_options(["oclock", "-geom", "100x100"])
        assert options["geometry"].width == 100

    def test_iconic_and_title(self):
        options = parse_xt_options(["xterm", "-iconic", "-title", "shell"])
        assert options["iconic"] is True
        assert options["title"] == "shell"

    def test_missing_value(self):
        with pytest.raises(CommandLineError):
            parse_xt_options(["xclock", "-geometry"])

    def test_unknown_options_kept(self):
        options = parse_xt_options(["xterm", "-e", "vi"])
        assert options["extra"] == ["-e", "vi"]


class TestXViewOptionParsing:
    def test_position_and_size(self):
        options = parse_xview_options(["cmdtool", "-Wp", "10", "20", "-Ws", "600", "400"])
        assert options["position"] == (10, 20)
        assert options["size"] == (600, 400)

    def test_icon_position(self):
        options = parse_xview_options(["cmdtool", "-WP", "5", "6"])
        assert options["icon_position"] == (5, 6)

    def test_iconic(self):
        assert parse_xview_options(["cmdtool", "-Wi"])["iconic"] is True


class TestAppCreation:
    def test_xclock_properties(self, server):
        app = XClock(server, ["xclock", "-geometry", "120x120+50+60"])
        conn = app.conn
        assert icccm.get_wm_class(conn, app.wid) == ("xclock", "XClock")
        assert icccm.get_wm_name(conn, app.wid) == "xclock"
        assert icccm.get_wm_command(conn, app.wid) == [
            "xclock", "-geometry", "120x120+50+60",
        ]
        assert icccm.get_wm_client_machine(conn, app.wid) == "localhost"
        x, y, w, h, _ = conn.get_geometry(app.wid)
        assert (x, y, w, h) == (50, 60, 120, 120)

    def test_geometry_sets_usposition(self, server):
        app = XClock(server, ["xclock", "-geometry", "+10+10"])
        hints = icccm.get_wm_normal_hints(app.conn, app.wid)
        assert hints.flags & US_POSITION

    def test_no_position_no_flags(self, server):
        app = XClock(server, ["xclock"])
        hints = icccm.get_wm_normal_hints(app.conn, app.wid)
        assert not hints.user_position and not hints.program_position

    def test_program_position_override(self, server):
        app = XClock(
            server, ["xclock", "-geometry", "+10+10"], user_positioned=False
        )
        hints = icccm.get_wm_normal_hints(app.conn, app.wid)
        assert hints.program_position and not hints.user_position

    def test_negative_geometry_resolves_against_screen(self, server):
        app = XClock(server, ["xclock", "-geometry", "100x100-0-0"])
        x, y, w, h, _ = app.conn.get_geometry(app.wid)
        assert (x, y) == (1152 - 100, 900 - 100)

    def test_iconic_initial_state(self, server):
        app = XClock(server, ["xclock", "-iconic"])
        hints = icccm.get_wm_hints(app.conn, app.wid)
        assert hints.start_iconic

    def test_oclock_is_shaped(self, server):
        app = OClock(server, ["oclock"])
        assert app.conn.window_is_shaped(app.wid)

    @pytest.mark.parametrize("size", ["150x100", "250x100", "100x100", "31x17"])
    def test_xeyes_mask_is_two_discs(self, server, size):
        """Two eye discs, flush left and right (overlapping when the
        window is narrower than two heights), as the pixel-by-pixel
        construction set them."""
        app = XEyes(server, ["xeyes", "-geometry", size])
        width, height = map(int, size.split("x"))
        eye = Bitmap.disc(height)
        far = width - height
        expected = Bitmap(width, height, [
            [eye.get(x, y) or eye.get(x - far, y) for x in range(width)]
            for y in range(height)
        ])
        shape = server.shape_query(app.wid)
        assert (shape.mask, shape.x_offset, shape.y_offset) == (expected, 0, 0)

    def test_xterm_resize_increments(self, server):
        app = XTerm(server, ["xterm"])
        hints = icccm.get_wm_normal_hints(app.conn, app.wid)
        assert hints.flags & P_RESIZE_INC
        assert hints.width_inc == 6 and hints.height_inc == 13

    def test_cmdtool_xview_geometry(self, server):
        app = CmdTool(server, ["cmdtool", "-Wp", "100", "150", "-Ws", "500", "300"])
        x, y, w, h, _ = app.conn.get_geometry(app.wid)
        assert (x, y, w, h) == (100, 150, 500, 300)

    def test_quit_destroys_window(self, server):
        app = XClock(server, ["xclock"])
        wid = app.wid
        app.quit()
        probe = XClock(server, ["xclock"])
        assert not probe.conn.window_exists(wid)


class TestRegistry:
    def test_launch_by_name(self, server):
        app = launch_command(server, ["xclock", "-geometry", "+1+2"])
        assert isinstance(app, XClock)

    def test_launch_with_path(self, server):
        app = launch_command(server, ["/usr/bin/X11/xterm"])
        assert isinstance(app, XTerm)

    def test_unknown_command(self, server):
        with pytest.raises(CommandLineError):
            launch_command(server, ["emacs"])

    def test_empty_command(self, server):
        with pytest.raises(CommandLineError):
            launch_command(server, [])

    def test_registry_covers_classics(self):
        for name in ("xclock", "oclock", "xterm", "xbiff", "cmdtool"):
            assert name in APP_REGISTRY


class TestMultiWindow:
    def test_secondary_window_usposition(self, server):
        app = MultiWindowApp(server, ["multiwin"])
        aux = app.open_secondary(500, 40)
        hints = icccm.get_wm_normal_hints(app.conn, aux)
        assert hints.user_position
        assert icccm.get_wm_transient_for(app.conn, aux) == app.wid

    def test_secondary_pposition(self, server):
        app = MultiWindowApp(server, ["multiwin"])
        aux = app.open_secondary(500, 40, user_position=False)
        hints = icccm.get_wm_normal_hints(app.conn, aux)
        assert hints.program_position


class TestPopups:
    def test_popup_near_window(self, server):
        app = XClock(server, ["xclock", "-geometry", "100x100+200+200"])
        popup = app.popup_at_offset(10, 10)
        x, y, _, _, _ = app.conn.get_geometry(popup)
        assert (x, y) == (210, 210)

    def test_popup_clamped_to_screen(self, server):
        app = XClock(server, ["xclock", "-geometry", "100x100+1000+800"])
        popup = app.popup_at_offset(200, 200, width=80, height=60)
        x, y, _, _, _ = app.conn.get_geometry(popup)
        assert x <= 1152 - 80 and y <= 900 - 60

    def test_close_popups(self, server):
        app = XClock(server, ["xclock"])
        popup = app.popup_at_offset(0, 0)
        app.close_popups()
        assert not app.conn.window_exists(popup)
