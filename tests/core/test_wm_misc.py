"""Odds and ends: opaque move, protocol tracing, find_managed,
execute_string errors, refresh, multi-reset robustness."""

import pytest

from repro.clients import XTerm
from repro.core.swmcmd import SwmCmdError
from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.xserver import XServer


class TestOpaqueMove:
    def test_opaque_move_drags_frame_live(self, server, db, tmp_path):
        db.put("swm*opaqueMove", "True")
        wm = Swm(server, db, places_path=str(tmp_path / "p"))
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        start = wm.frame_rect(managed)
        wm.begin_move(managed, (150, 150))
        server.motion(200, 180)
        wm.process_pending()
        live = wm.frame_rect(managed)
        assert (live.x, live.y) == (start.x + 50, start.y + 30)
        server.button_release(1)
        wm.process_pending()

    def test_outline_move_by_default(self, server, wm):
        app = XTerm(server, ["xterm", "-geometry", "+100+100"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        start = wm.frame_rect(managed)
        wm.begin_move(managed, (150, 150))
        server.motion(200, 180)
        wm.process_pending()
        assert wm.frame_rect(managed) == start  # outline only
        server.button_release(1)
        wm.process_pending()


class TestProtocolTrace:
    def test_trace_records_requests(self, server, wm):
        server.stats().reset()
        app = XTerm(server, ["xterm", "-geometry", "+10+10"])
        wm.process_pending()
        names = server.stats().snapshot()["requests"]
        assert "create_window" in names
        assert "reparent_window" in names
        assert "map_window" in names


class TestFindManaged:
    def test_by_client_frame_and_descendant(self, server, wm):
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        managed = wm.managed[app.wid]
        assert wm.find_managed(app.wid) is managed
        assert wm.find_managed(managed.frame) is managed
        name_obj = managed.object_named("name")
        assert wm.find_managed(name_obj.window) is managed

    def test_unknown_window(self, server, wm):
        assert wm.find_managed(0xDEAD) is None

    def test_popup_of_managed_client(self, server, wm):
        """A popup is a root child, not inside the frame -> not
        resolved to the managed window."""
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        popup = app.popup_at_offset(5, 5)
        assert wm.find_managed(popup) is None


class TestExecuteString:
    def test_bad_string_raises(self, server, wm):
        with pytest.raises(SwmCmdError):
            wm.execute_string("!! nope !!")

    def test_refresh_runs(self, server, wm):
        wm.execute_string("f.refresh")

    def test_places_via_string(self, server, wm, tmp_path):
        XTerm(server, ["xterm"])
        wm.process_pending()
        wm.execute_string("f.places")
        with open(wm.places_path) as handle:
            assert "xterm" in handle.read()


class TestRepeatedResets:
    def test_double_reset(self, server, wm):
        XTerm(server, ["xterm"])
        wm.process_pending()
        server.reset()
        server.reset()
        assert server.generation == 3

    def test_wm_after_reset_can_restart_fresh(self, db, tmp_path):
        server = XServer(screens=[(1152, 900, 8)])
        db.put("swm*virtualDesktop", "3000x2400")
        wm = Swm(server, db, places_path=str(tmp_path / "p1"))
        XTerm(server, ["xterm"])
        wm.process_pending()
        server.reset()
        wm2 = Swm(server, db, places_path=str(tmp_path / "p2"))
        app = XTerm(server, ["xterm"])
        wm2.process_pending()
        assert app.wid in wm2.managed

    def test_quit_then_second_wm(self, server, db, tmp_path):
        wm = Swm(server, db, places_path=str(tmp_path / "p1"))
        app = XTerm(server, ["xterm"])
        wm.process_pending()
        wm.quit()
        wm2 = Swm(server, db, places_path=str(tmp_path / "p2"))
        assert app.wid in wm2.managed
