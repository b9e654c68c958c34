"""The request table, pinned from outside.

- Parity: every request runs on twin servers, one driven through a
  loopback client and one through a :class:`FramedTransport` client
  (encode, frame, decode, dispatch).  Both must return equal results or
  raise the same error class, and leave equal window trees behind.
  ``close`` and ``note_drained`` have their own tests.
- ``note_drained`` is not a request a peer may execute: drains are
  recorded by the loopback drain and the server's own flusher only.
- ``count_discards`` from a peer accepts only event class names, so a
  hostile peer cannot grow the stats counters without bound.
- ``change_property`` refuses a property or type atom that does not
  exist (an unknown id, or a value that cannot be one) with BadAtom, as
  X11's ChangeProperty does, and the peer keeps its connection.
"""

import random

import pytest

from repro.xserver import ClientConnection, EventMask, XServer
from repro.xserver import events as ev
from repro.xserver.bitmap import Bitmap
from repro.xserver.errors import BadAtom, BadRequest, BadValue, XError
from repro.xserver.quotas import QuotaLimits
from repro.xserver.requests import REQUESTS as TABLE
from repro.xserver.wire import FramedHost, FramedTransport
from repro.xserver.wire.codec import REQUESTS

from .test_codec import sample_request

#: Requests with tests of their own below (or in test_transport.py).
OWN_TESTS = ("close", "note_drained")


def twin_clients():
    """(loopback client, framed client) on two fresh, identical
    servers: the same client id, XID range and screens on both."""
    local = ClientConnection(XServer(), "app")
    host = FramedHost(XServer())
    remote = ClientConnection(name="app", transport=FramedTransport(host))
    assert local.client_id == remote.client_id
    return local, remote, host


def setup_scene(conn):
    """A mapped top-level with a property and an unmapped child."""
    root = conn.root_window()
    atom = conn.intern_atom("SWM_PARITY")
    top = conn.create_window(root, 10, 10, 100, 80)
    child = conn.create_window(top, 5, 5, 20, 20)
    conn.map_window(top)
    conn.change_property(top, atom, "STRING", 8, "parity")
    return {"root": root, "atom": atom, "top": top, "child": child,
            "fresh": conn._xids.allocate()}


def live_request(name, ids):
    """(args, kwargs) for *name* against the objects setup_scene made."""
    root, atom = ids["root"], ids["atom"]
    top, child = ids["top"], ids["child"]
    samples = {
        "create_window": (
            (ids["fresh"], top, 1, 2, 30, 40),
            {"border_width": 1, "event_mask": EventMask.Exposure},
        ),
        "destroy_window": ((child,), {}),
        "destroy_subwindows": ((top,), {}),
        "map_window": ((child,), {}),
        "map_subwindows": ((top,), {}),
        "unmap_window": ((top,), {}),
        "reparent_window": ((child, root, 7, 9), {}),
        "configure_window": (
            (top, ev.CWX | ev.CWY | ev.CWWidth),
            {"x": 3, "y": 4, "width": 60},
        ),
        "circulate_window": ((top, 0), {}),
        "change_window_attributes": (
            (top,), {"event_mask": EventMask.KeyPress}
        ),
        "change_property": ((top, atom, 31, 8, "swm", 0), {}),
        "get_property": ((top, atom), {}),
        "delete_property": ((top, atom), {}),
        "list_properties": ((top,), {}),
        "send_event": (
            (top, ev.ClientMessage(window=top, message_type=atom,
                                   data=(1, 2, 3)),
             EventMask.NoEvent, False),
            {},
        ),
        "query_tree": ((top,), {}),
        "get_geometry": ((child,), {}),
        "get_window_attributes": ((top,), {}),
        "translate_coordinates": ((child, root, 3, 4), {}),
        "query_pointer": ((top,), {}),
        "window_exists": ((top,), {}),
        "set_input_focus": ((top, 1), {}),
        "get_input_focus": ((), {}),
        "change_save_set": ((top, 0), {}),
        "grab_pointer": ((top, EventMask.ButtonPress, False, None), {}),
        "ungrab_pointer": ((), {}),
        "grab_button": ((top, 1, 0, EventMask.ButtonPress, True, "fleur"),
                        {}),
        "ungrab_button": ((top, 1, 0), {}),
        "grab_key": ((top, "F1", 4, False), {}),
        "warp_pointer": ((top, 10, 20), {}),
        "shape_set_mask": (
            (top, Bitmap(2, 2, [[True, False], [False, True]])),
            {"x_offset": 1, "y_offset": 2},
        ),
        "window_is_shaped": ((top,), {}),
        "intern_atom": (("WM_NAME", False), {}),
        "get_atom_name": ((atom,), {}),
        "root_window": ((0,), {}),
        "screen_count": ((), {}),
        "screen_info": ((0,), {}),
        "set_coalescing": ((False,), {}),
        "count_discards": ((["Expose", "MotionNotify"],), {}),
        "execute_batch": (
            (
                [
                    ("configure_window", (top, ev.CWX), {"x": 5}),
                    ("change_property", (top, atom, 31, 8, "b", 0), {}),
                    ("delete_property", (top, atom), {}),
                    ("map_window", (child,), {}),
                ],
            ),
            {},
        ),
    }
    return samples[name]


def outcome(conn, name, args, kwargs):
    try:
        return ("ok", conn._transport.request(name, args, kwargs))
    except XError as err:
        return ("error", type(err))


def tree(server, wid):
    """The window tree under *wid* as plain data."""
    _root, parent, children = server.query_tree(wid)
    return (wid, parent, server.get_geometry(wid),
            server.window(wid).mapped,
            [tree(server, kid) for kid in children])


def assert_twins_agree(local, remote, host, name, args, kwargs):
    expected = outcome(local, name, args, kwargs)
    got = outcome(remote, name, args, kwargs)
    assert got == expected, name
    assert host.errors == []
    server_a, server_b = local.server, host.server
    for screen_a, screen_b in zip(server_a.screens, server_b.screens):
        assert (tree(server_b, screen_b.root.id)
                == tree(server_a, screen_a.root.id)), name


PARITY_REQUESTS = [name for name in REQUESTS if name not in OWN_TESTS]


class TestParity:
    @pytest.mark.parametrize("name", PARITY_REQUESTS)
    def test_live_request_matches_over_both_transports(self, name):
        local, remote, host = twin_clients()
        ids = setup_scene(local)
        assert setup_scene(remote) == ids
        args, kwargs = live_request(name, ids)
        assert_twins_agree(local, remote, host, name, args, kwargs)

    @pytest.mark.parametrize("name", PARITY_REQUESTS)
    def test_codec_sample_matches_over_both_transports(self, name, wire_seed):
        # The codec suite's shapes name windows nobody created, so they
        # mostly exercise the error paths.
        local, remote, host = twin_clients()
        args, kwargs = sample_request(name, random.Random(wire_seed))
        assert_twins_agree(local, remote, host, name, args, kwargs)


class TestTable:
    def test_handlerless_entries_name_server_methods(self):
        for spec in TABLE.values():
            if spec.handler is None:
                assert callable(getattr(XServer, spec.name, None)), spec.name

    def test_opcodes_follow_table_order(self):
        assert [spec.opcode for spec in TABLE.values()] == list(
            range(1, len(TABLE) + 1)
        )
        assert TABLE is REQUESTS  # the codec reads the same table

    def test_retired_slot_keeps_its_opcode(self):
        assert TABLE["note_drained"].opcode == 39
        assert TABLE["count_discards"].opcode == 40


class TestNoteDrainedIsNotARequest:
    BUDGET = 3

    def holder(self):
        server = XServer(
            quota_limits=QuotaLimits(grab_tick_budget=self.BUDGET)
        )
        host = FramedHost(server)
        conn = ClientConnection(name="holder",
                                transport=FramedTransport(host))
        wid = conn.create_window(conn.root_window(), 0, 0, 100, 100)
        conn.map_window(wid)
        conn.grab_pointer(wid, EventMask.PointerMotion)
        assert server.active_grab is not None
        return server, conn

    def test_peer_cannot_keep_a_grab_alive(self):
        server, conn = self.holder()
        for _ in range(self.BUDGET + 3):
            with pytest.raises(BadRequest):
                conn._transport.request("note_drained", (0,), {})
            server.housekeeping_tick()
        assert server.active_grab is None
        assert server.stats().get("grabs_broken", reason="not-draining") == 1

    def test_peer_cannot_lift_its_own_throttle(self):
        server, conn = self.holder()
        server.quotas.mark_throttled(conn.client_id)
        with pytest.raises(BadRequest):
            conn._transport.request("note_drained", (0,), {})
        assert server.quotas.is_throttled(conn.client_id)
        assert server.stats().snapshot()["quotas"]["unthrottles"] == {}


class TestCountDiscardsFromAPeer:
    def remote(self):
        server = XServer()
        conn = ClientConnection(name="app",
                                transport=FramedTransport(FramedHost(server)))
        return server, conn

    def test_made_up_names_are_refused(self):
        server, conn = self.remote()
        names = [f"Fake{i}" for i in range(5000)]
        with pytest.raises(BadValue):
            conn._transport.request("count_discards", (names,), {})
        stats = server.stats()
        assert stats.snapshot()["dropped"] == {}
        assert stats.get("dropped", client=conn.client_id) == 0

    def test_one_bad_name_counts_nothing(self):
        server, conn = self.remote()
        with pytest.raises(BadValue):
            conn._transport.request(
                "count_discards", (["Expose", "NotAnEvent"],), {}
            )
        with pytest.raises(BadValue):
            conn._transport.request("count_discards", ([7],), {})
        assert server.stats().get("dropped") == 0

    def test_event_class_names_are_counted(self):
        server, conn = self.remote()
        conn._transport.count_discards(["Expose", "MotionNotify", "Expose"])
        stats = server.stats()
        assert stats.get("dropped", type="Expose", client=conn.client_id) == 2
        assert stats.get("dropped", type="MotionNotify") == 1


class TestChangePropertyAtoms:
    @pytest.mark.parametrize("atom, type_atom", [
        (39, -1), (39, [1, 2]), ([1, 2], 31),
    ])
    def test_unknown_atom_is_bad_atom_and_the_peer_lives_on(
        self, atom, type_atom
    ):
        server = XServer()
        host = FramedHost(server)
        conn = ClientConnection(name="app", transport=FramedTransport(host))
        wid = conn.create_window(conn.root_window(), 0, 0, 20, 20)
        with pytest.raises(BadAtom):
            conn.change_property(wid, atom, type_atom, 8, "x")
        assert conn.get_property(wid, 39) is None
        assert conn.map_window(wid) is True
        assert conn.is_alive()
        assert host.errors == []
