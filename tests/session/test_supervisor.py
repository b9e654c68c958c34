"""The supervised restart loop: crash, clean up, restore, adopt.

Crashes are injected with the ``crash`` fault family: a rule matching
the WM's own connection raises :class:`WMCrash` out of a request, the
supervisor catches it, cleans the corpse off the server, burns the
backoff and boots a fresh WM that re-adopts every surviving client
against the last checkpoint.
"""

import pytest

from repro import icccm
from repro.clients import launch_command
from repro.core.templates import load_template
from repro.core.wm import Swm
from repro.icccm.hints import ICONIC_STATE
from repro.session.store import SessionStore
from repro.session.supervisor import CrashStorm, Supervisor
from repro.testing import (
    assert_adoption_complete,
    assert_wm_consistent,
)
from repro.xserver import XServer
from repro.xserver.faults import CRASH, FaultPlan, WMCrash


def wm_is(name):
    """Client filter matching the WM's own connection by name."""
    def predicate(client_id, _name=name):
        conn = predicate.server.clients.get(client_id)
        return conn is not None and conn.name == _name
    return predicate


def make_factory(tmp_path):
    db = load_template("OpenLook+")
    db.put("swm*virtualDesktop", "3000x2400")
    db.put("swm*virtualDesktops", "2")

    def factory(server, store):
        return Swm(
            server,
            db,
            places_path=str(tmp_path / "places"),
            session_store=store,
        )

    return factory


def crash_plan(server, request, *, arm_after=0, max_fires=1, seed=11):
    """A plan whose single rule crashes the WM connection at *request*."""
    predicate = wm_is("swm")
    predicate.server = server
    plan = FaultPlan(seed)
    plan.rule(
        CRASH,
        probability=1.0,
        requests=(request,),
        clients=predicate,
        arm_after=arm_after,
        max_fires=max_fires,
        name=f"crash@{request}",
    )
    return plan


@pytest.fixture
def server():
    return XServer(screens=[(1152, 900, 8)])


class TestBasicSupervision:
    def test_start_boots_a_wm(self, server, tmp_path):
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(server, store, make_factory(tmp_path))
        wm = sup.start()
        assert wm is sup.wm
        assert sup.restarts == 1
        assert not sup.crashes

    def test_pump_before_start_raises(self, server, tmp_path):
        sup = Supervisor(server, None, make_factory(tmp_path))
        with pytest.raises(RuntimeError):
            sup.pump()

    def test_bad_cleanup_mode_rejected(self, server, tmp_path):
        with pytest.raises(ValueError):
            Supervisor(
                server, None, make_factory(tmp_path), cleanup="explode"
            )

    def test_run_returns_default_on_crash(self, server, tmp_path):
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(server, store, make_factory(tmp_path))
        wm = sup.start()
        server.install_faults(crash_plan(server, "warp_pointer"))
        result = sup.run(
            wm.conn.warp_pointer, wm.screens[0].root, 10, 10, default="gone"
        )
        assert result == "gone"
        assert len(sup.crashes) == 1
        assert sup.wm is not None and sup.wm is not wm
        server.clear_faults()


@pytest.mark.parametrize("cleanup", ["close", "abandon"])
class TestCrashRecovery:
    def test_clients_survive_a_crash(self, server, tmp_path, cleanup):
        """Every pre-crash client is back under management afterwards,
        with geometry, iconic state and stickiness restored from the
        checkpoint + WM_STATE."""
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(
            server, store, make_factory(tmp_path), cleanup=cleanup
        )
        wm = sup.start()

        xterm = launch_command(server, ["xterm", "-geometry", "+50+60"])
        xclock = launch_command(server, ["xclock", "-geometry", "+400+80"])
        xload = launch_command(server, ["xload", "-geometry", "+700+90"])
        sup.pump()
        assert xterm.wid in sup.wm.managed

        wm.move_managed_to(wm.managed[xterm.wid], 333, 222)
        wm.iconify(wm.managed[xclock.wid])
        wm.stick(wm.managed[xload.wid])
        sup.pump()
        assert wm.session.autosave()
        expected = [
            m.client for m in wm.managed.values() if not m.is_internal
        ]
        saved_position = wm.client_desktop_position(wm.managed[xterm.wid])

        server.install_faults(crash_plan(server, "configure_window"))
        sup.run(wm.move_managed_to, wm.managed[xterm.wid], 333, 223)
        server.clear_faults()

        assert len(sup.crashes) == 1
        new_wm = sup.wm
        assert new_wm is not wm
        sup.pump()

        assert_wm_consistent(new_wm)
        assert_adoption_complete(new_wm, expected)
        for wid in (xterm.wid, xclock.wid, xload.wid):
            assert wid in new_wm.managed
        stats = new_wm.session.adoption
        assert stats.adopted + stats.rescued == len(expected)
        if cleanup == "abandon":
            # Zombie frames were found, emptied and demolished.
            assert stats.adopted > 0
            assert stats.reclaimed > 0
        else:
            # Save-set rescue had already put clients back on the root.
            assert stats.rescued > 0

        position = new_wm.client_desktop_position(new_wm.managed[xterm.wid])
        assert (position.x, position.y) == (saved_position.x, saved_position.y)
        assert new_wm.managed[xclock.wid].state == ICONIC_STATE
        assert new_wm.managed[xload.wid].sticky

    def test_crash_while_decorating_a_new_client(
        self, server, tmp_path, cleanup
    ):
        """The WM dies reacting to a MapRequest (mid-manage, half a
        frame built).  Event delivery is synchronous, so the crash
        surfaces inside the launch — run it supervised and the caller
        sees the default instead of the exception."""
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(
            server, store, make_factory(tmp_path), cleanup=cleanup
        )
        wm = sup.start()
        xterm = launch_command(server, ["xterm"])
        sup.pump()
        wm.session.autosave()
        expected = [
            m.client for m in wm.managed.values() if not m.is_internal
        ]

        server.install_faults(crash_plan(server, "create_window"))
        casualty = sup.run(launch_command, server, ["xclock"])
        server.clear_faults()
        sup.pump()

        assert casualty is None  # the launch saw the WM die mid-frame
        assert len(sup.crashes) == 1
        assert xterm.wid in sup.wm.managed
        assert_wm_consistent(sup.wm)
        assert_adoption_complete(sup.wm, expected)
        # The restarted WM is fully in service: a fresh client manages.
        xclock = launch_command(server, ["xclock"])
        sup.pump()
        assert xclock.wid in sup.wm.managed


class TestBackoff:
    def test_backoff_grows_and_caps(self, server, tmp_path):
        """Repeated boot crashes climb the exponential ladder up to the
        cap; the simulated clock advances by each wait."""
        sup = Supervisor(
            server,
            None,
            make_factory(tmp_path),
            backoff_base=4,
            backoff_cap=16,
            storm_threshold=100,
        )
        server.install_faults(
            crash_plan(server, "create_window", max_fires=5)
        )
        before = server.timestamp
        sup.start()
        server.clear_faults()

        assert [c.backoff for c in sup.crashes] == [4, 8, 16, 16, 16]
        assert all(c.during_boot for c in sup.crashes)
        assert server.timestamp - before >= sum(
            c.backoff for c in sup.crashes
        )
        assert sup.wm is not None

    def test_successful_step_resets_the_ladder(self, server, tmp_path):
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(
            server,
            store,
            make_factory(tmp_path),
            backoff_base=4,
            storm_threshold=100,
            storm_window=10,
        )
        sup.start()
        for _ in range(3):
            server.install_faults(crash_plan(server, "warp_pointer"))
            sup.run(
                sup.wm.conn.warp_pointer, sup.wm.screens[0].root, 5, 5
            )
            server.clear_faults()
            sup.pump()  # a healthy step between crashes
        # Every crash saw a fully reset ladder.
        assert [c.backoff for c in sup.crashes] == [4, 4, 4]


class TestCrashStorm:
    def test_breaker_trips_on_a_storm(self, server, tmp_path):
        sup = Supervisor(
            server,
            None,
            make_factory(tmp_path),
            storm_threshold=3,
            storm_window=100_000,
        )
        server.install_faults(
            crash_plan(server, "create_window", max_fires=None)
        )
        with pytest.raises(CrashStorm):
            sup.start()
        server.clear_faults()

        assert sup.tripped
        assert len(sup.crashes) == 4  # threshold exceeded on the 4th
        # The breaker stays open.
        with pytest.raises(CrashStorm):
            sup.run(lambda: None)

    def test_spread_out_crashes_do_not_trip(self, server, tmp_path):
        """Crashes outside the sliding window never accumulate."""
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(
            server,
            store,
            make_factory(tmp_path),
            storm_threshold=2,
            storm_window=50,
        )
        sup.start()
        for _ in range(4):
            server.timestamp += 1000  # quiet stretch between incidents
            server.install_faults(crash_plan(server, "warp_pointer"))
            sup.run(
                sup.wm.conn.warp_pointer, sup.wm.screens[0].root, 5, 5
            )
            server.clear_faults()
            sup.pump()
        assert not sup.tripped
        assert len(sup.crashes) == 4


class TestCheckpointIntegration:
    def test_corrupt_checkpoint_rolls_back_a_generation(
        self, server, tmp_path
    ):
        """A corrupted newest checkpoint costs one generation of
        history and a quarantine record — never the restore."""
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(server, store, make_factory(tmp_path))
        wm = sup.start()
        xterm = launch_command(server, ["xterm", "-geometry", "+50+60"])
        sup.pump()

        wm.move_managed_to(wm.managed[xterm.wid], 100, 110)
        good_position = wm.client_desktop_position(wm.managed[xterm.wid])
        assert wm.session.autosave()  # generation 1
        wm.move_managed_to(wm.managed[xterm.wid], 500, 510)
        assert wm.session.autosave()  # generation 2
        newest = store.load()
        with open(newest.path, "r+b") as handle:
            handle.seek(-3, 2)
            handle.write(b"\xff")  # bit-rot in the newest generation

        server.install_faults(crash_plan(server, "configure_window"))
        sup.run(wm.move_managed_to, wm.managed[xterm.wid], 1, 1)
        server.clear_faults()
        sup.pump()

        assert store.quarantined  # the bad generation was moved aside
        new_wm = sup.wm
        assert xterm.wid in new_wm.managed
        position = new_wm.client_desktop_position(new_wm.managed[xterm.wid])
        # Generation 1's geometry won (the corrupt generation 2 lost).
        assert (position.x, position.y) == (good_position.x, good_position.y)
        assert_wm_consistent(new_wm)

    def test_autosave_debounce_checkpoints_after_changes(
        self, server, tmp_path
    ):
        """A geometry change is on disk within AUTOSAVE_DEBOUNCE event
        pumps, without an explicit f.places."""
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(server, store, make_factory(tmp_path))
        wm = sup.start()
        xterm = launch_command(server, ["xterm", "-geometry", "+50+60"])
        sup.pump()

        saves_before = store.saves
        wm.move_managed_to(wm.managed[xterm.wid], 640, 480)
        position = wm.client_desktop_position(wm.managed[xterm.wid])
        for _ in range(wm.session.AUTOSAVE_DEBOUNCE + 1):
            sup.pump()
        assert store.saves > saves_before
        assert f"+{position.x}+{position.y}" in store.load().text

    @pytest.mark.parametrize("prop", ["WM_COMMAND", "WM_CLIENT_MACHINE"])
    def test_restart_property_change_is_checkpointed(
        self, server, tmp_path, prop
    ):
        """A client changing how it is restarted (its WM_COMMAND or
        WM_CLIENT_MACHINE) is on disk within the autosave debounce."""
        store = SessionStore(str(tmp_path / "ck"))
        sup = Supervisor(server, store, make_factory(tmp_path))
        wm = sup.start()
        xterm = launch_command(server, ["xterm", "-geometry", "+50+60"])
        sup.pump()
        assert wm.session.autosave()
        saves_before = store.saves

        if prop == "WM_COMMAND":
            icccm.set_wm_command(
                xterm.conn, xterm.wid, ["xterm", "-title", "renamed"]
            )
            wanted = "-cmd 'xterm -title renamed'"
        else:
            icccm.set_wm_client_machine(xterm.conn, xterm.wid, "farhost")
            wanted = "-machine farhost"
        for _ in range(wm.session.AUTOSAVE_DEBOUNCE + 2):
            sup.pump()
        assert store.saves == saves_before + 1
        assert wanted in store.load().text

    def test_no_store_supervisor_still_recovers(self, server, tmp_path):
        """The supervisor works storeless: adoption alone brings the
        clients back (geometry from the live windows, not a file)."""
        sup = Supervisor(server, None, make_factory(tmp_path))
        wm = sup.start()
        xterm = launch_command(server, ["xterm", "-geometry", "+70+80"])
        sup.pump()
        expected = [
            m.client for m in wm.managed.values() if not m.is_internal
        ]

        server.install_faults(crash_plan(server, "warp_pointer"))
        sup.run(wm.conn.warp_pointer, wm.screens[0].root, 9, 9)
        server.clear_faults()
        sup.pump()

        assert xterm.wid in sup.wm.managed
        assert_wm_consistent(sup.wm)
        assert_adoption_complete(sup.wm, expected)


class TestWMCrashSemantics:
    def test_wmcrash_is_not_an_xerror(self):
        """guarded() must never absorb a crash — only the supervisor
        may catch it."""
        from repro.xserver.errors import XError

        assert not issubclass(WMCrash, XError)

    def test_crash_escapes_guarded(self, server, tmp_path):
        wm = make_factory(tmp_path)(server, None)
        server.install_faults(crash_plan(server, "warp_pointer"))
        with pytest.raises(WMCrash):
            wm.guarded(wm.conn.warp_pointer, wm.screens[0].root, 1, 1)
        server.clear_faults()
