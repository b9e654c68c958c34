"""Window trees nested deeper than the Python recursion limit.

A client may own up to 2048 windows (``QuotaLimits.max_windows``), so it
can nest them more than a thousand deep.  Closing the client,
destroying the nest, mapping each window as it is created, and
translating coordinates from the deepest leaf after a move must all
work at that depth: on loopback the server is left with only the roots
and no quota count for the client, and over a framed link no request is
answered BadImplementation (``host.errors`` stays empty).
"""

import pytest

from repro.xserver import ClientConnection, XServer
from repro.xserver.wire import FramedHost, FramedTransport

#: Deeper than the default recursion limit (1000), within the quota.
DEPTH = 1200


def connect(transport):
    """(server, host or None, client) over the named transport."""
    server = XServer()
    if transport == "loopback":
        return server, None, ClientConnection(server, "nest")
    host = FramedHost(server)
    return server, host, ClientConnection(
        name="nest", transport=FramedTransport(host))


def nest(conn, mapped=False):
    """DEPTH windows, each the only child of the one before."""
    wid = conn.root_window()
    chain = []
    for _ in range(DEPTH):
        wid = conn.create_window(wid, 1, 1, 5, 5)
        if mapped:
            conn.map_window(wid)
        chain.append(wid)
    return chain


def only_roots(server):
    return set(server.windows) == {screen.root.id for screen in server.screens}


@pytest.mark.parametrize("transport", ["loopback", "framed"])
@pytest.mark.parametrize("case", ["close", "destroy", "map", "translate"])
def test_a_nest_deeper_than_the_recursion_limit(transport, case):
    server, host, conn = connect(transport)
    client_id = conn.client_id
    if case == "close":
        nest(conn)
        conn.close()
        assert only_roots(server)
        assert client_id not in server.quotas.windows
        assert client_id not in server.clients
    elif case == "destroy":
        chain = nest(conn)
        conn.destroy_window(chain[0])
        assert only_roots(server)
        assert client_id not in server.quotas.windows
    elif case == "map":
        chain = nest(conn, mapped=True)
        assert server.window(chain[-1]).viewable
        conn.unmap_window(chain[0])
        assert not server.window(chain[-1]).viewable
    else:
        chain = nest(conn)
        conn.move_window(chain[0], 3, 3)
        x, y, child = conn.translate_coordinates(
            chain[-1], conn.root_window(), 0, 0)
        assert (x, y) == (3 + DEPTH - 1, 3 + DEPTH - 1)
    if host is not None:
        assert host.errors == []
