"""The autosave's memo: a checkpoint formats only the clients whose
restart inputs changed since the last one, and its text always equals
a fresh snapshot of every client, ``format_places(collect_entries(wm))``.
Nothing tells the memo about a change: it compares each client's
inputs by value.

The counts come from wrapping ``places.format_entry`` and
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
def formats(monkeypatch):
    """The restart inputs of each ``places.format_entry`` call."""
    calls = []
    format_entry = places.format_entry

    def counted(inputs, template):
        calls.append(inputs)
        return format_entry(inputs, template)

    monkeypatch.setattr(places, "format_entry", counted)
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


def test_one_moved_window_is_snapshotted_once(server, wm, formats):
    """After one window out of 8 moves, the next autosave formats that
    window's entry alone (a full snapshot would format 8)."""
    apps = launch_all(server, wm, PROGRAMS)
    assert wm.session.autosave()
    assert len(formats) == len(apps)

    del formats[:]
    moved = wm.managed[apps[3].wid]
    wm.move_managed_to(moved, 1200, 900)
    assert wm.session.autosave()
    assert formats == [places.restart_inputs(wm, moved)]
    assert last_saved(wm) == reference(wm)
    position = wm.client_desktop_position(moved)
    assert f"+{position.x}+{position.y}" in last_saved(wm)


def test_a_note_that_changes_nothing_formats_no_entry(
    server, wm, formats, writes
):
    """A change noted where nothing a checkpoint records moved costs a
    comparison of inputs per client: no entry is formatted and no
    generation is written."""
    launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    del formats[:]
    written = len(writes.texts)
    wm.note_session_change()
    assert wm.session.autosave()
    assert formats == []
    assert len(writes.texts) == written


def test_client_configure_drops_its_entry(server, wm, formats):
    """A client resizing itself reaches the next checkpoint through the
    window model the WM updates when it grants the request; only its
    entry is formatted again."""
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    del formats[:]
    apps[0].move_resize(500, 400, 300, 200)
    wm.process_pending()
    assert wm.session.autosave()
    assert formats == [places.restart_inputs(wm, wm.managed[apps[0].wid])]
    assert last_saved(wm) == reference(wm)


def test_a_wm_hints_change_is_checkpointed(server, wm):
    """A new icon position in WM_HINTS schedules a checkpoint of its
    own, which records it."""
    apps = launch_all(server, wm, PROGRAMS[:2])
    assert wm.session.autosave()
    saves = wm.session_store.saves
    hints = WMHints(flags=ICON_POSITION_HINT, icon_x=640, icon_y=480)
    icccm.set_wm_hints(apps[0].conn, apps[0].wid, hints)
    for _ in range(wm.session.AUTOSAVE_DEBOUNCE + 2):
        wm.process_pending()
    assert wm.session_store.saves == saves + 1
    assert "-icongeometry +640+480" in last_saved(wm)
    assert last_saved(wm) == reference(wm)


def test_autosave_inside_a_frame_move_sees_the_move(server, wm):
    """WM handlers run inside the request that triggered them: with a
    checkpoint already due, ``move_managed_to`` autosaves from inside
    its own ``move_window``, before its ``note_session_change``.  The
    window model holds the move before the request goes out, so that
    checkpoint records it."""
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    saves = wm.session_store.saves
    session = wm.session
    wm.note_session_change()
    while session._tick + 1 < session._save_due:
        wm.process_pending()
    assert wm.session_store.saves == saves  # due on the next pump

    wm.move_managed_to(wm.managed[apps[0].wid], 1500, 1100)
    assert wm.session_store.saves == saves + 1
    assert last_saved(wm) == reference(wm)


def test_icon_repack_is_checkpointed(server, wm, formats):
    """The icon holder repacks its icons without telling the WM; every
    checkpoint reads where each icon sits, so the repack reaches the
    next one."""
    apps = launch_all(server, wm, ["xterm", "xterm", "xterm"])
    for app in apps:
        wm.iconify(wm.managed[app.wid])
    wm.process_pending()
    assert wm.session.autosave()
    before = [places.restart_inputs(wm, wm.managed[app.wid]).icon
              for app in apps[1:]]
    # Leaving the holder repacks the icons after the first one.
    del formats[:]
    wm.deiconify(wm.managed[apps[0].wid])
    wm.process_pending()
    assert wm.session.autosave()
    after = [places.restart_inputs(wm, wm.managed[app.wid])
             for app in apps]
    assert [inputs.icon for inputs in after[1:]] != before
    assert formats == after
    assert last_saved(wm) == reference(wm)


def test_unmanaged_client_leaves_the_checkpoint(server, wm, formats):
    apps = launch_all(server, wm, PROGRAMS[:3])
    assert wm.session.autosave()
    del formats[:]
    apps[1].quit()
    wm.process_pending()
    assert wm.session.autosave()
    assert formats == []
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
    wm.note_session_change()  # changes no line
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
