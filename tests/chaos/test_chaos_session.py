"""Session-layer behaviour under injected faults.

The f.places snapshot, the f.restart teardown/rebuild cycle, and the
WM_DELETE_WINDOW deadline are the three session paths where a client
racing away (or wedging) used to take the whole WM down.  Each test
pins the degraded-but-correct outcome.  Each WM carries a checkpoint
store, and ``checkpoint_oracle`` checks every autosave against a fresh
snapshot of the session.
"""

from repro import icccm
from repro.clients import launch_command
from repro.core.subsystems.focus import FocusController
from repro.session.store import SessionStore
from repro.testing import assert_wm_consistent
from repro.xserver import XServer
from repro.xserver.faults import DROP, ERROR, FaultPlan

from .test_chaos_wm import full_wm


def stored_wm(server, tmp_path):
    wm = full_wm(server, str(tmp_path / "places"))
    wm.session_store = SessionStore(str(tmp_path / "ck"))
    return wm


def test_places_skips_client_that_died_behind_wms_back(
    tmp_path, checkpoint_oracle
):
    """A client exits, but its UnmapNotify/DestroyNotify are lost: the
    WM still has a managed entry for a corpse.  f.places and the
    autosave must skip the casualty (counting a guarded error) and save
    every survivor, even though the corpse's checkpoint entry was
    cached while it lived."""
    server = XServer(screens=[(1152, 900, 8)])
    wm = stored_wm(server, tmp_path)
    wm.process_pending()

    xterm = launch_command(server, ["xterm", "-geometry", "+10+10"])
    xclock = launch_command(server, ["xclock", "-geometry", "+300+10"])
    xload = launch_command(server, ["xload", "-geometry", "+600+10"])
    wm.process_pending()
    assert xclock.wid in wm.managed
    assert wm.session.autosave()
    assert "xclock" in checkpoint_oracle[-1]

    # Lose every lifecycle notification, then kill the clock: the WM
    # never learns it died.
    plan = FaultPlan(seed=7)
    plan.rule(DROP, probability=1.0,
              events=("UnmapNotify", "DestroyNotify"))
    server.install_faults(plan)
    xclock.quit()
    wm.process_pending()
    server.clear_faults()
    assert xclock.wid in wm.managed  # stale: the corpse looks managed

    guarded_before = server.stats().get("guarded")
    text = wm.save_places()

    assert server.stats().get("guarded") > guarded_before
    assert "xterm" in text
    assert "xload" in text
    assert "xclock" not in text
    # The file is still a well-formed script the survivors can replay.
    from repro.session.places import parse_places

    assert len(parse_places(text)) == 2
    assert wm.session.autosave()
    assert wm.session_store.load().text == text


def test_restart_survives_bounded_error_plan(tmp_path, checkpoint_oracle):
    """f.restart tears down every frame and rebuilds the screens while
    X errors land on the teardown/re-manage requests.  The WM must come
    back consistent; a client whose re-manage aborted is recoverable
    with a plain manage() once the weather clears."""
    server = XServer(screens=[(1152, 900, 8)])
    wm = stored_wm(server, tmp_path)
    wm.process_pending()

    apps = [
        launch_command(server, ["xterm"]),
        launch_command(server, ["xclock"]),
        launch_command(server, ["xlogo"]),
    ]
    wm.process_pending()
    assert all(a.wid in wm.managed for a in apps)

    plan = FaultPlan(seed=2025)
    plan.rule(ERROR, probability=0.25, error="BadWindow",
              requests=("destroy_window", "unmap_window",
                        "reparent_window"),
              name="restart-storm")
    server.install_faults(plan)
    wm.restart()
    wm.process_pending()
    server.clear_faults()

    assert plan.total_injected() > 0, plan.counts
    assert server.stats().get("guarded") > 0
    assert_wm_consistent(wm)

    # Survivors whose re-manage aborted mid-storm left no debris and
    # re-manage cleanly now.
    for app in apps:
        if wm.conn.window_exists(app.wid) and app.wid not in wm.managed:
            wm.manage(app.wid)
    wm.process_pending()
    survivors = [a for a in apps if wm.conn.window_exists(a.wid)]
    assert survivors, "the storm destroyed every client"
    assert all(a.wid in wm.managed for a in survivors)
    assert_wm_consistent(wm)
    assert wm.session.autosave()
    assert checkpoint_oracle


def test_delete_window_timeout_falls_back_to_destroy(
    tmp_path, checkpoint_oracle
):
    """A client advertises WM_DELETE_WINDOW but wedges: after the
    deadline the WM destroys it rather than pinning the frame forever
    (an ICCCM wait must never be open-ended)."""
    server = XServer(screens=[(1152, 900, 8)])
    wm = stored_wm(server, tmp_path)
    wm.process_pending()

    app = launch_command(server, ["xterm"])
    icccm.set_wm_protocols(app.conn, app.wid, ["WM_DELETE_WINDOW"])
    wm.process_pending()
    managed = wm.managed[app.wid]

    wm.delete_client(managed)
    wm.process_pending()
    # Polite phase: the client was asked, nothing forced yet.
    assert app.wid in wm.managed
    assert app.conn.window_exists(app.wid)
    assert app.wid in wm.focuser.pending_deletes

    # The client ignores the message; time passes.
    server.timestamp += FocusController.DELETE_TIMEOUT + 1
    wm.process_pending()

    assert not wm.conn.window_exists(app.wid)
    assert app.wid not in wm.managed
    assert app.wid not in wm.focuser.pending_deletes
    assert_wm_consistent(wm)
    assert wm.session.autosave()
    assert checkpoint_oracle
