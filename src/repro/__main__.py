"""``python -m repro``: a guided tour of the reproduction.

With no arguments this runs a condensed version of the examples: boots
the simulated server, starts swm with the Virtual Desktop, launches
classic clients, shows the three figures, and performs a session
save/restore roundtrip.

Subcommands expose the wire layer::

    python -m repro serve  --port 6600    # TCP X server, swm managing it
    python -m repro connect --port 6600   # remote smoke-test client

and the observability layer::

    python -m repro soak --seed 1337 --profile ci --out BENCH_soak.json
"""

from __future__ import annotations

import argparse
import sys
import time

from . import Swm, XServer
from .clients import NaiveApp, OClock, XClock, XTerm
from .core.templates import ROOT_PANEL_TEMPLATE, load_template
from .figures import figure1_decoration, figure2_root_panel, figure3_panner
from .session import Launcher, replay_places


def demo() -> int:
    print(__doc__)
    server = XServer(screens=[(1152, 900, 8)])
    db = load_template("OpenLook+")
    db.load_string(ROOT_PANEL_TEMPLATE)
    db.put("swm*rootPanels", "RootPanel")
    db.put("swm*panel.RootPanel.geometry", "+400+400")
    db.put("swm*virtualDesktop", "3000x2400")
    wm = Swm(server, db, places_path="/tmp/swm-demo.places")

    term = XTerm(server, ["xterm", "-geometry", "80x24+60+60",
                          "-title", "shell"])
    clock = XClock(server, ["xclock", "-geometry", "100x100-10+10"])
    oclock = OClock(server, ["oclock", "-geom", "100x100"])
    NaiveApp(server, ["naivedemo", "-geometry", "400x300+1800+1200",
                      "-title", "far-away"])
    wm.process_pending()

    print("=== Figure 1: the xterm's OpenLook+ decoration ===")
    print(figure1_decoration(server, wm, term.wid))
    print("\n=== Figure 2: the RootPanel ===")
    print(figure2_root_panel(server, wm))
    wm.pan_to(0, 300, 200)
    print("\n=== Figure 3: the panner ===")
    print(figure3_panner(wm))

    oclock_managed = wm.managed[oclock.wid]
    wm.resize_managed(oclock_managed, 120, 120)
    wm.move_client_to(oclock_managed, 1010, 359)
    script = wm.save_places()
    print("\n=== f.places output (the .xinitrc replacement) ===")
    print(script)

    print("=== restarting X and replaying the session ===")
    server.reset()
    replay_places(script, Launcher(server))
    wm2 = Swm(server, db, places_path="/tmp/swm-demo2.places")
    wm2.process_pending()
    restored = next(
        m for m in wm2.managed.values() if m.instance == "oclock"
    )
    position = wm2.client_desktop_position(restored)
    print(f"oclock restored at ({position.x}, {position.y}) — the paper's"
          " worked example (expected 1010, 359)")
    return 0


def _wire_options(opts):
    """Map the shared ``--timeout`` / ``--heartbeat-interval`` flags to
    the wire layer's knobs."""
    from .xserver.wire import ResilienceConfig, WireTimeouts

    timeouts = WireTimeouts.uniform(opts.timeout)
    resilience = ResilienceConfig(heartbeat_interval=opts.heartbeat_interval)
    return timeouts, resilience


def _positive_seconds(text: str) -> float:
    """argparse type for a period that must be greater than zero."""
    seconds = float(text)
    if not seconds > 0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return seconds


def serve(opts) -> int:
    """Boot the simulated X server behind the TCP wire front and block
    until interrupted.  Remote clients connect with ``TcpTransport`` (or
    ``python -m repro connect``).  With ``--shards N`` a
    :class:`~repro.session.router.DisplayRouter` fronts N supervised
    shards, one wire port per shard on consecutive ports."""
    from .xserver.wire import WireServer

    timeouts, resilience = _wire_options(opts)
    if opts.shards > 1:
        return _serve_router(opts, timeouts, resilience)
    server = XServer(screens=[(1152, 900, 8)])
    wm = None
    if not opts.no_wm:
        db = load_template("OpenLook+")
        wm = Swm(server, db, places_path="/tmp/swm-serve.places")
    with WireServer(
        server, host=opts.host, port=opts.port,
        timeouts=timeouts, resilience=resilience,
    ) as ws:
        managed = "swm managing the root" if wm else "no window manager"
        print(f"serving X on {ws.host}:{ws.port} ({managed})")
        print("stop with Ctrl-C")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            if ws.errors:
                print(f"loop errors: {ws.errors}", file=sys.stderr)
                return 1
    return 0


def _serve_router(opts, timeouts, resilience) -> int:
    """Multi-screen mode: a DisplayRouter over ``--shards`` supervised
    shards, each behind its own wire port (``--port``, ``--port + 1``,
    ...).  The serve loop pumps the router, so shard heartbeats,
    failover and deferred-admission draining stay live."""
    from .session.router import DisplayRouter
    from .xserver.wire import WireServer

    if opts.no_wm:
        print("--no-wm is incompatible with --shards: every shard is a"
              " supervised swm stack", file=sys.stderr)
        return 2
    router = DisplayRouter(shards=opts.shards)
    fronts = []
    errors = 0
    try:
        for shard in router.shards.values():
            ws = WireServer(
                shard.server, host=opts.host, port=opts.port + shard.id,
                timeouts=timeouts, resilience=resilience,
            )
            ws.start()
            fronts.append(ws)
            print(f"shard {shard.id}: serving X on {ws.host}:{ws.port}")
        print(f"display router up: {opts.shards} shards, stop with Ctrl-C")
        try:
            while True:
                time.sleep(1.0)
                router.pump()
        except KeyboardInterrupt:
            print("\nshutting down")
            stats = router.stats()
            print(
                f"router: {stats['placements']} placements,"
                f" {stats['failovers']} failovers,"
                f" {stats['heartbeats']} heartbeats"
            )
    finally:
        for ws in fronts:
            ws.stop()
            if ws.errors:
                print(f"shard loop errors: {ws.errors}", file=sys.stderr)
                errors += len(ws.errors)
        router.close()
    return 1 if errors else 0


def connect(opts) -> int:
    """Connect to a running ``serve`` instance, exercise the protocol
    end to end, and print what came back over the wire."""
    from .xserver import ClientConnection, EventMask
    from .xserver.wire import TcpTransport

    host, port, name = opts.host, opts.port, opts.name
    timeouts, resilience = _wire_options(opts)
    conn = ClientConnection(
        name=name,
        transport=TcpTransport(
            host=host, port=port,
            timeouts=timeouts, resilience=resilience,
        ),
    )
    print(f"connected as client {conn.client_id} to {host}:{port}")
    info = conn.screen_info()
    print(f"screen 0: {info['width']}x{info['height']} root={info['root']}")
    wid = conn.create_window(info["root"], 20, 20, 300, 200)
    conn.select_input(wid, EventMask.StructureNotify | EventMask.Exposure)
    conn.map_window(wid)
    conn.set_string_property(wid, "WM_NAME", name)
    print(f"created + mapped window {wid} "
          f"(WM_NAME={conn.get_string_property(wid, 'WM_NAME')!r})")
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline and not conn.pending():
        time.sleep(0.05)
    for event in conn.flush_events():
        print(f"  event: {event}")
    geometry = conn.get_geometry(wid)
    print(f"final geometry: {geometry}")
    conn.close()
    print("closed cleanly")
    return 0


def soak(opts) -> int:
    """Run a deterministic soak (see repro.session.soak) and export the
    ``BENCH_soak.json`` trajectory.  Exit codes: 0 clean, 1 oracle
    drift, 2 crash storm."""
    from .session.soak import run_soak

    if opts.dump_dir:
        import os

        os.makedirs(opts.dump_dir, exist_ok=True)
    print(f"soak: profile={opts.profile} seed={opts.seed}")
    print(f"replay: PYTHONPATH=src python -m repro soak"
          f" --seed {opts.seed} --profile {opts.profile}")
    code, result = run_soak(
        opts.seed,
        profile=opts.profile,
        out=opts.out,
        dump_dir=opts.dump_dir or None,
        store_dir=opts.store_dir or None,
    )
    if result is not None:
        totals = result["totals"]
        print(
            f"soak {'OK' if code == 0 else 'FAILED'}:"
            f" {totals['requests']} requests,"
            f" {totals['crashes']} crashes,"
            f" {totals['restarts']} restarts,"
            f" {totals['oracle_checks']} oracle checks,"
            f" signature={totals['signature']}"
            f" in {totals['wall_s']}s"
        )
        if opts.out:
            print(f"wrote {opts.out}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    def wire_flags(sub_parser):
        sub_parser.add_argument(
            "--timeout", type=float, default=10.0, metavar="SECONDS",
            help="wall-clock bound for connect/handshake/rpc/shutdown"
            " (WireTimeouts.uniform; default: 10.0)",
        )
        sub_parser.add_argument(
            "--heartbeat-interval", type=_positive_seconds, default=1.0,
            metavar="SECONDS",
            help="liveness probe period, > 0: a peer silent for 4 periods"
            " (or stuck mid-frame) is dropped and its session parked for"
            " resume (default: 1.0)",
        )

    serve_p = sub.add_parser(
        "serve", help="run the simulated X server on a TCP port"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=6600)
    serve_p.add_argument(
        "--no-wm", action="store_true",
        help="serve a bare X server without swm managing it",
    )
    serve_p.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="front N supervised display shards with a DisplayRouter,"
        " one wire port per shard from --port upward (default: 1)",
    )
    wire_flags(serve_p)

    connect_p = sub.add_parser(
        "connect", help="smoke-test client against a running serve"
    )
    connect_p.add_argument("--host", default="127.0.0.1")
    connect_p.add_argument("--port", type=int, default=6600)
    connect_p.add_argument("--name", default="repro-connect")
    wire_flags(connect_p)

    soak_p = sub.add_parser(
        "soak", help="deterministic soak run with tracing + oracles",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean — every phase completed with zero oracle drift\n"
            "  1  oracle drift — a consistency/adoption/quota oracle\n"
            "     failed; the flight dump and partial payload are still\n"
            "     written\n"
            "  2  crash storm — the supervisor's restart budget tripped\n"
            "     mid-soak (the WM kept dying faster than it could\n"
            "     recover)\n"
        ),
    )
    soak_p.add_argument("--seed", type=int, default=1337)
    soak_p.add_argument(
        "--profile", default="ci",
        help="soak profile: quick, ci or long (default: ci)",
    )
    soak_p.add_argument(
        "--out", default="BENCH_soak.json",
        help="result payload path (default: BENCH_soak.json)",
    )
    soak_p.add_argument(
        "--dump-dir", default="",
        help="directory for flight-recorder dumps (default: none)",
    )
    soak_p.add_argument(
        "--store-dir", default="",
        help="session-store directory (default: a temp dir)",
    )

    opts = parser.parse_args(argv)
    if opts.command == "soak":
        return soak(opts)
    if opts.command == "serve":
        return serve(opts)
    if opts.command == "connect":
        return connect(opts)
    return demo()


if __name__ == "__main__":
    sys.exit(main())
