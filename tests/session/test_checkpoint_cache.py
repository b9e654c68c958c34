"""The autosave's entry cache: a checkpoint re-snapshots only the
clients that changed since the last one, and its text always equals a
fresh snapshot of every client, ``format_places(collect_entries(wm))``.

The counts come from wrapping ``places._snapshot_one`` and
``SessionStore.save`` from the test, so ``src/`` carries no probe.
"""

import pytest

from repro import icccm
from repro.clients import launch_command
from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.icccm.hints import ICON_POSITION_HINT, WMHints
from repro.session import places
from repro.session.places import collect_entries, format_places
from repro.session.store import SessionStore
from repro.xserver import XServer

PROGRAMS = ["xterm", "xclock", "oclock", "xterm", "xclock", "oclock",
            "xterm", "xclock"]


@pytest.fixture
def server():
    return XServer(screens=[(1152, 900, 8)])


@pytest.fixture
def wm(server, tmp_path):
    db = load_template("OpenLook+")
    db.put("swm*virtualDesktop", "3000x2400")
    db.put("swm*iconHolders", "stash")
    db.put("swm*holder.stash.classes", "XTerm")
    db.put("swm*holder.stash.geometry", "+900+10")
    return Swm(
        server, db, places_path=str(tmp_path / "places"),
        session_store=SessionStore(str(tmp_path / "ck")),
    )


class Writes:
    """``SessionStore.save`` calls: the texts, and how many more calls
    should fail with OSError."""

    def __init__(self):
        self.texts = []
        self.fail = 0


@pytest.fixture
def writes(monkeypatch):
    log = Writes()
    save = SessionStore.save

    def counted(store, text):
        log.texts.append(text)
        if log.fail:
            log.fail -= 1
            raise OSError("disk full")
        return save(store, text)

    monkeypatch.setattr(SessionStore, "save", counted)
    return log


@pytest.fixture
def snapshots(monkeypatch):
    """Count calls of ``places._snapshot_one``."""
    calls = []
    snapshot_one = places._snapshot_one

    def counted(wm, managed, *args):
        calls.append(managed.client)
        return snapshot_one(wm, managed, *args)

    monkeypatch.setattr(places, "_snapshot_one", counted)
    return calls


def launch_all(server, wm, programs):
    apps = [
        launch_command(server, [program, "-geometry",
                                f"+{40 + 90 * i}+{30 + 60 * i}"])
        for i, program in enumerate(programs)
    ]
    wm.process_pending()
    assert all(app.wid in wm.managed for app in apps)
    return apps


def reference(wm):
    return format_places(collect_entries(wm))


def last_saved(wm):
    return wm.session_store.load().text


def test_one_moved_window_is_snapshotted_once(server, wm, snapshots):
    """After one window out of 8 moves, the next autosave snapshots that
    window alone (a full re-snapshot would take 8)."""
    apps = launch_all(server, wm, PROGRAMS)
    assert wm.session.autosave()
    assert len(snapshots) == len(apps)

    del snapshots[:]
    moved = wm.managed[apps[3].wid]
    wm.move_managed_to(moved, 1200, 900)
    assert wm.session.autosave()
    assert snapshots == [moved.client]
    assert last_saved(wm) == reference(wm)
    position = wm.client_desktop_position(moved)
    assert f"+{position.x}+{position.y}" in last_saved(wm)


def test_note_without_a_window_drops_every_entry(server, wm, snapshots):
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    del snapshots[:]
    wm.note_session_change()
    assert wm.session.autosave()
    assert sorted(snapshots) == sorted(app.wid for app in apps)


def test_client_configure_drops_its_entry(server, wm, snapshots):
    """A client resizing itself is seen through its ConfigureNotify."""
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    del snapshots[:]
    apps[0].move_resize(500, 400, 300, 200)
    wm.process_pending()
    assert wm.session.autosave()
    assert snapshots == [apps[0].wid]
    assert last_saved(wm) == reference(wm)


def test_wm_hints_change_drops_its_entry(server, wm):
    """A new icon position in WM_HINTS reaches the next checkpoint."""
    apps = launch_all(server, wm, PROGRAMS[:2])
    assert wm.session.autosave()
    hints = WMHints(flags=ICON_POSITION_HINT, icon_x=640, icon_y=480)
    icccm.set_wm_hints(apps[0].conn, apps[0].wid, hints)
    wm.process_pending()
    wm.note_session_change(wm.managed[apps[1].wid])
    assert wm.session.autosave()
    assert "-icongeometry +640+480" in last_saved(wm)
    assert last_saved(wm) == reference(wm)


def test_autosave_inside_a_frame_move_sees_the_move(server, wm):
    """WM handlers run inside the request that triggered them: with a
    checkpoint already due, ``move_managed_to`` autosaves from inside
    its own ``move_window``, before its ``note_session_change``.  The
    frame's ConfigureNotify must have dropped the stale entry by then."""
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    saves = wm.session_store.saves
    session = wm.session
    wm.note_session_change(wm.managed[apps[1].wid])
    while session._tick + 1 < session._save_due:
        wm.process_pending()
    assert wm.session_store.saves == saves  # due on the next pump

    wm.move_managed_to(wm.managed[apps[0].wid], 1500, 1100)
    assert wm.session_store.saves == saves + 1
    assert last_saved(wm) == reference(wm)


def test_icon_repack_is_checkpointed(server, wm):
    """The icon holder repacks its icons without an event to the WM, so
    iconic clients are snapshotted at every checkpoint."""
    apps = launch_all(server, wm, ["xterm", "xterm", "xterm"])
    for app in apps:
        wm.iconify(wm.managed[app.wid])
    wm.process_pending()
    assert wm.session.autosave()
    # Leaving the holder repacks the icons after the first one.
    wm.deiconify(wm.managed[apps[0].wid])
    wm.process_pending()
    assert wm.session.autosave()
    assert last_saved(wm) == reference(wm)


def test_unmanaged_client_leaves_the_checkpoint(server, wm):
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    apps[1].quit()
    wm.process_pending()
    assert wm.session.autosave()
    assert wm.session._entries.keys() == {apps[0].wid, apps[2].wid}
    assert last_saved(wm) == reference(wm)


def test_storeless_wm_caches_nothing(server, tmp_path):
    wm = Swm(server, load_template("OpenLook+"),
             places_path=str(tmp_path / "places"))
    launch_all(server, wm, PROGRAMS[:2])
    assert wm.session._entries == {}
    assert not wm.session.autosave()


def test_unchanged_session_writes_no_generation(server, wm, writes):
    """A second autosave with no change writes no generation, and still
    counts as a checkpoint."""
    launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    written = len(writes.texts)
    newest = wm.session_store.latest_generation()
    wm.note_session_change()  # drops every entry, changes no line
    assert wm.session.autosave()
    assert len(writes.texts) == written
    assert wm.session_store.latest_generation() == newest
    assert last_saved(wm) == reference(wm)


def test_f_places_always_writes(server, wm, writes):
    launch_all(server, wm, PROGRAMS[:2])
    written = len(writes.texts)
    text = wm.save_places()
    assert wm.save_places() == text
    assert writes.texts[written:] == [text, text]
    # The autosave after it has nothing new to write.
    wm.note_session_change()
    assert wm.session.autosave()
    assert len(writes.texts) == written + 2


def test_failed_save_is_retried(server, wm, writes):
    """A failed save leaves the last saved text alone, so the next
    autosave of the same session writes it."""
    apps = launch_all(server, wm, PROGRAMS[:2])
    wm.move_managed_to(wm.managed[apps[0].wid], 700, 500)
    writes.fail = 1
    assert not wm.session.autosave()
    assert wm.session.autosave_failures == 1
    assert wm.session.autosave()
    assert writes.texts[-2] == writes.texts[-1]
    assert last_saved(wm) == reference(wm)
