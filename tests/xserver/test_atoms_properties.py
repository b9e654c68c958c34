"""Atom interning, the client's atom cache, and window property storage."""

import pytest
from hypothesis import given, strategies as st

from repro.xserver import ClientConnection, ConnectionClosed, XServer
from repro.xserver.atoms import AtomTable, LAST_PREDEFINED, PREDEFINED
from repro.xserver.errors import BadAtom, BadMatch, BadValue
from repro.xserver.properties import (
    PROP_MODE_APPEND,
    PROP_MODE_PREPEND,
    PROP_MODE_REPLACE,
    Property,
    PropertyMap,
)
from repro.xserver.wire import FramedHost, FramedTransport


class TestAtoms:
    def test_predefined_values(self):
        table = AtomTable()
        assert table.intern("WM_NAME") == 39
        assert table.intern("WM_CLASS") == 67
        assert table.intern("STRING") == 31

    def test_intern_new(self):
        table = AtomTable()
        atom = table.intern("SWM_ROOT")
        assert atom > LAST_PREDEFINED
        assert table.name(atom) == "SWM_ROOT"

    def test_intern_is_idempotent(self):
        table = AtomTable()
        assert table.intern("FOO") == table.intern("FOO")

    def test_only_if_exists(self):
        table = AtomTable()
        assert table.intern("NOPE", only_if_exists=True) is None
        table.intern("NOPE")
        assert table.intern("NOPE", only_if_exists=True) is not None

    def test_bad_atom_name(self):
        table = AtomTable()
        with pytest.raises(BadAtom):
            table.intern("")

    def test_name_of_unknown(self):
        with pytest.raises(BadAtom):
            AtomTable().name(99999)

    @given(st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=30))
    def test_distinct_names_distinct_atoms(self, names):
        table = AtomTable()
        atoms = {name: table.intern(name) for name in names}
        assert len(set(atoms.values())) == len(set(names))


def count_requests(monkeypatch, conn):
    """The names of the requests *conn* sends from now on."""
    sent = []
    request = conn._transport.request

    def counting(name, args=(), kwargs=None):
        sent.append(name)
        return request(name, args, kwargs)

    monkeypatch.setattr(conn._transport, "request", counting)
    return sent


class TestAtomCache:
    """Each connection answers the predefined atoms, and every name it
    has interned, from its own cache, as Xlib does."""

    @pytest.fixture
    def conn(self):
        return ClientConnection(XServer(), "app")

    def test_predefined_names_send_no_request(self, monkeypatch, conn):
        sent = count_requests(monkeypatch, conn)
        for name, atom in PREDEFINED.items():
            assert conn.intern_atom(name) == atom
            assert conn.intern_atom(name, only_if_exists=True) == atom
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.change_property(wid, "WM_NAME", "STRING", 8, "x")
        assert conn.get_string_property(wid, "WM_NAME") == "x"
        assert "intern_atom" not in sent

    def test_a_second_intern_of_a_new_name_sends_none(self, monkeypatch,
                                                      conn):
        other = ClientConnection(conn.server, "other")
        sent = count_requests(monkeypatch, conn)
        atom = conn.intern_atom("SWM_CACHED")
        assert sent == ["intern_atom"]
        assert conn.intern_atom("SWM_CACHED") == atom
        assert conn.intern_atom("SWM_CACHED", only_if_exists=True) == atom
        wid = conn.create_window(conn.root_window(), 0, 0, 10, 10)
        conn.change_property(wid, "SWM_CACHED", "STRING", 8, "x")
        assert sent.count("intern_atom") == 1
        # The cache is the connection's: another client still asks, and
        # the server gives it the same atom.
        other_sent = count_requests(monkeypatch, other)
        assert other.intern_atom("SWM_CACHED") == atom
        assert other_sent == ["intern_atom"]

    def test_an_only_if_exists_miss_is_asked_again(self, monkeypatch, conn):
        sent = count_requests(monkeypatch, conn)
        assert conn.intern_atom("SWM_LATER", only_if_exists=True) is None
        assert conn.intern_atom("SWM_LATER", only_if_exists=True) is None
        assert sent == ["intern_atom", "intern_atom"]
        atom = ClientConnection(conn.server, "other").intern_atom("SWM_LATER")
        assert conn.intern_atom("SWM_LATER", only_if_exists=True) == atom
        assert conn.intern_atom("SWM_LATER") == atom
        assert sent == ["intern_atom"] * 3

    @pytest.mark.parametrize("framed", [False, True])
    def test_a_closed_connection_raises_for_a_cached_name(self, framed):
        if framed:
            transport = FramedTransport(FramedHost(XServer()))
            conn = ClientConnection(name="app", transport=transport)
        else:
            conn = ClientConnection(XServer(), "app")
        conn.intern_atom("SWM_CACHED")
        conn.close()
        for name in ("SWM_CACHED", "WM_NAME"):
            with pytest.raises(ConnectionClosed):
                conn.intern_atom(name)

    @pytest.mark.parametrize("framed", [False, True])
    def test_a_closed_connection_interns_no_new_name(self, framed):
        server = XServer()
        if framed:
            transport = FramedTransport(FramedHost(server))
            conn = ClientConnection(name="app", transport=transport)
        else:
            conn = ClientConnection(server, "app")
        conn.close()
        with pytest.raises(ConnectionClosed):
            conn.intern_atom("SWM_NEVER_INTERNED")
        assert server.atoms.intern(
            "SWM_NEVER_INTERNED", only_if_exists=True
        ) is None


class TestProperty:
    def test_string_property(self):
        prop = Property(31, 8, "xclock")
        assert prop.as_string() == "xclock"
        assert len(prop) == 6

    def test_string_list_encoding(self):
        prop = Property(31, 8, "xclock\0XClock\0")
        assert prop.as_strings() == ["xclock", "XClock"]

    def test_string_list_without_trailing_nul(self):
        prop = Property(31, 8, "a\0b")
        assert prop.as_strings() == ["a", "b"]

    def test_empty_string_list(self):
        assert Property(31, 8, "").as_strings() == []

    def test_format32(self):
        prop = Property(6, 32, [1, 2, 3])
        assert prop.data == [1, 2, 3]

    def test_bad_format(self):
        with pytest.raises(BadValue):
            Property(6, 9, [1])

    def test_value_out_of_format_range(self):
        with pytest.raises(BadValue):
            Property(6, 16, [70000])

    def test_as_string_requires_format8(self):
        with pytest.raises(BadMatch):
            Property(6, 32, [1]).as_string()


class TestPropertyMap:
    def test_replace(self):
        props = PropertyMap()
        props.change(39, 31, 8, "one")
        props.change(39, 31, 8, "two")
        assert props.get(39).as_string() == "two"

    def test_append(self):
        props = PropertyMap()
        props.change(34, 31, 8, "abc")
        props.change(34, 31, 8, "def", PROP_MODE_APPEND)
        assert props.get(34).as_string() == "abcdef"

    def test_prepend(self):
        props = PropertyMap()
        props.change(34, 31, 8, "abc")
        props.change(34, 31, 8, "def", PROP_MODE_PREPEND)
        assert props.get(34).as_string() == "defabc"

    def test_append_format32(self):
        props = PropertyMap()
        props.change(6, 6, 32, [1])
        props.change(6, 6, 32, [2, 3], PROP_MODE_APPEND)
        assert props.get(6).data == [1, 2, 3]

    def test_append_to_missing_behaves_like_replace(self):
        props = PropertyMap()
        props.change(34, 31, 8, "xyz", PROP_MODE_APPEND)
        assert props.get(34).as_string() == "xyz"

    def test_append_type_mismatch(self):
        props = PropertyMap()
        props.change(34, 31, 8, "abc")
        with pytest.raises(BadMatch):
            props.change(34, 6, 8, "def", PROP_MODE_APPEND)

    def test_append_format_mismatch(self):
        props = PropertyMap()
        props.change(34, 6, 32, [1])
        with pytest.raises(BadMatch):
            props.change(34, 6, 16, [2], PROP_MODE_APPEND)

    def test_delete(self):
        props = PropertyMap()
        props.change(39, 31, 8, "x")
        assert props.delete(39)
        assert not props.delete(39)
        assert props.get(39) is None

    def test_list_atoms(self):
        props = PropertyMap()
        props.change(39, 31, 8, "x")
        props.change(67, 31, 8, "y")
        assert sorted(props.list_atoms()) == [39, 67]

    def test_bad_mode(self):
        props = PropertyMap()
        props.change(39, 31, 8, "x")
        with pytest.raises(BadValue):
            props.change(39, 31, 8, "y", mode=7)

    @given(st.lists(st.binary(max_size=16), max_size=10))
    def test_appends_concatenate(self, chunks):
        props = PropertyMap()
        props.change(34, 31, 8, b"")
        for chunk in chunks:
            props.change(34, 31, 8, chunk, PROP_MODE_APPEND)
        assert props.get(34).data == b"".join(chunks)
