"""``wire_tcp``: protocol traffic over real sockets.

A bare server (``python -m repro serve --no-wm``, default resilience:
heartbeats, session tokens, acked event sequence numbers) runs in its
own process, started by ``serve.py``; with server and client in one
process the interpreter's 5 ms thread switch interval would set the
tail.  This process drives two ``TcpTransport`` connections, one per
CPU, each owning a 4x4 grid of children inside a container window.
The load mixes void requests (``configure_window``,
``change_property``), whose notify events flow back and get acked, with
reply requests (``get_geometry``, ``query_tree``), so transport,
resilience and codec do most of the work while wm, store and window do
almost none.

Latency classes: ``void`` and ``reply`` as above; ``pan`` moves a
container with its 16 children in one ConfigureWindow (a Virtual
Desktop pan on the wire); ``map`` creates and maps a top-level until
MapWindow returned (no WM: the window is then on screen).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from repro.xserver import ClientConnection, EventMask
from repro.xserver.wire import ResilienceConfig, TcpTransport, WireTimeouts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST = "127.0.0.1"
GRID = 4
CELL = 120
CHILD_MASK = EventMask.StructureNotify | EventMask.PropertyChange
MAX_TOPS = 2

MIX = (
    ("configure", 34),
    ("property", 25),
    ("geometry", 18),
    ("tree", 10),
    ("drain", 6),
    ("pan", 3),
    ("top", 4),         # map a new top-level, or destroy one
)


class WireClient:
    """One connection and the windows it owns."""

    def __init__(self, port: int, index: int):
        self.conn = conn = ClientConnection(
            name=f"wire-{index}",
            transport=TcpTransport(
                host=HOST, port=port, timeouts=WireTimeouts.uniform(10.0),
                resilience=ResilienceConfig(heartbeat_interval=1.0),
            ),
        )
        self.root = conn.screen_info()["root"]
        self.origin = (40 + 560 * index, 60)
        self.container = conn.create_window(
            self.root, *self.origin, GRID * CELL, GRID * CELL, border_width=1,
            event_mask=EventMask.StructureNotify,
        )
        #: child wid -> last geometry written (x, y, width, height).
        self.geometry = {}
        for row in range(GRID):
            for column in range(GRID):
                geometry = (column * CELL + 8, row * CELL + 8,
                            CELL - 16, CELL - 16)
                wid = conn.create_window(self.container, *geometry,
                                         border_width=1, event_mask=CHILD_MASK)
                self.geometry[wid] = geometry
        self.children = list(self.geometry)
        #: child wid -> last property value written.
        self.notes = {}
        self.note_atom = conn.intern_atom("PERFBENCH_NOTE")
        self.string_atom = conn.intern_atom("STRING")
        conn.map_subwindows(self.container)
        conn.map_window(self.container)
        self.tops = []

    def configure(self, wid: int, x: int, y: int, width: int, height: int):
        self.conn.configure_window(wid, x=x, y=y, width=width, height=height)
        self.geometry[wid] = (x, y, width, height)

    def note(self, wid: int, text: str) -> None:
        self.conn.change_property(wid, self.note_atom, self.string_atom, 8,
                                  text)
        self.notes[wid] = text

    def map_top(self, x: int, y: int) -> bool:
        wid = self.conn.create_window(self.root, x, y, 200, 140,
                                      border_width=1,
                                      event_mask=EventMask.StructureNotify)
        self.tops.append(wid)
        return self.conn.map_window(wid) is not False

    def destroy_top(self) -> None:
        self.conn.destroy_window(self.tops.pop(0))

    def problems(self):
        problems = []
        for wid, wanted in self.geometry.items():
            got = self.conn.get_geometry(wid)[:4]
            if tuple(got) != wanted:
                problems.append(f"child {wid:#x} reads {got}, wrote {wanted}")
        for wid, wanted in self.notes.items():
            got = self.conn.get_string_property(wid, self.note_atom)
            if got != wanted:
                problems.append(f"note on {wid:#x} reads {got!r}, wrote"
                                f" {wanted!r}")
        return problems


class WireTcp:
    #: Time blocked socket reads as transport.wait in the traced run.
    WAIT_SOCKETS = True

    def __init__(self, seed: int, workdir: str, traced: bool = False):
        self.rng = random.Random(f"wire_tcp/{seed}")
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            # One CPU per side, the same placement on every run: where
            # the scheduler puts the two processes otherwise decides
            # the tail from run to run.
            os.sched_setaffinity(0, {cpus[0]})
            command.append(f"--cpu={cpus[1]}")
        if traced:
            command.append("--trace")
        command += ["serve", "--no-wm", "--host", HOST, "--port", "0"]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        self.report = {}
        self.clients = []
        try:
            port = self._await_port()
            self.clients = [WireClient(port, index) for index in (0, 1)]
        except BaseException:
            self.close()
            raise
        kinds, weights = zip(*MIX)
        self._kinds, self._weights = kinds, weights

    # -- server process ---------------------------------------------------

    def _await_port(self) -> int:
        for line in self.proc.stdout:
            if line.startswith("serving X on "):
                address = line.split()[3]
                return int(address.rsplit(":", 1)[1])
        raise RuntimeError(f"server exited with {self.proc.wait()}"
                           " before listening")

    def _read_report(self) -> dict:
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH "):
                self.report = json.loads(line[len("PERFBENCH "):])
                return self.report
        raise RuntimeError("server closed its output without a report")

    def _stop_server(self):
        """Stop the server; returns its exit code and last report."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except OSError:
                pass
        report = {}
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH "):
                report = json.loads(line[len("PERFBENCH "):])
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code, report

    # -- operations -------------------------------------------------------

    def next_op(self):
        rng = self.rng
        kind = rng.choices(self._kinds, self._weights)[0]
        client = self.clients[rng.randrange(2)]
        conn = client.conn
        wid = client.children[rng.randrange(len(client.children))]
        if kind == "configure":
            width, height = rng.randint(20, CELL), rng.randint(20, CELL)
            geometry = (rng.randint(0, GRID * CELL - width),
                        rng.randint(0, GRID * CELL - height), width, height)
            return "void", lambda: client.configure(wid, *geometry)
        if kind == "property":
            text = "note-" * rng.randint(1, 12) + str(rng.randint(0, 999))
            return "void", lambda: client.note(wid, text)
        if kind == "geometry":
            return "reply", lambda: conn.get_geometry(wid)
        if kind == "tree":
            return "reply", lambda: conn.query_tree(client.container)
        if kind == "drain":
            return "drain", self._drain
        if kind == "pan":
            x = client.origin[0] + rng.randint(-30, 30)
            y = client.origin[1] + rng.randint(-30, 30)
            return "pan", lambda: conn.move_window(client.container, x, y)
        if len(client.tops) < MAX_TOPS and (
                not client.tops or rng.random() < 0.5):
            x, y = rng.randint(0, 900), rng.randint(0, 700)
            return "map", lambda: client.map_top(x, y)
        return "destroy", client.destroy_top

    def _drain(self) -> None:
        for client in self.clients:
            client.conn.events()

    # -- checks and counts ------------------------------------------------

    def problems(self):
        """Read back every last write, then stop the server: it must
        exit 0 with no loop errors."""
        problems = []
        for client in self.clients:
            problems += client.problems()
        for client in self.clients:
            client.conn.close()
        self.clients = []
        code, report = self._stop_server()
        if code != 0:
            problems.append(f"server exited with code {code}")
        if report.get("errors"):
            problems.append(f"server loop errors: {report['errors']}")
        self.report = report or self.report
        return problems

    def stats_snapshot(self) -> dict:
        self.proc.stdin.write("snapshot\n")
        self.proc.stdin.flush()
        return self._read_report()["stats"]

    def server_probe_ns(self) -> int:
        """The reference probe, run by the server process."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH-PROBE "):
                return int(line.split()[1])
        raise RuntimeError("server closed its output without a probe")

    def layer_totals(self) -> dict:
        """Server-process layer totals as of the last snapshot."""
        return self.report.get("layers", {})

    def signature_extra(self) -> dict:
        return {}

    def peak_rss_kb(self) -> int:
        return self.report["vm_hwm_kb"]

    def client_pings(self) -> int:
        return sum(client.conn._transport._ping_serial
                   for client in self.clients)

    def close(self) -> None:
        for client in self.clients:
            client.conn.close()
        self.clients = []
        if self.proc.returncode is None:
            self._stop_server()
