"""Server process of the ``wire_tcp`` workload.

    python3 perfbench/serve.py [--cpu=N] [--trace] serve --no-wm --port 0

Runs ``repro.__main__.main`` with the remaining arguments, which is
the ``python -m repro serve`` entry point itself.  ``--cpu=N`` pins
the process to CPU N first; with ``--trace`` the layer wrappers are
installed first, so server-side dispatch, server, codec and resilience
time is measured where it runs.

Commands arrive on standard input, one per line:

- ``snapshot`` prints ``PERFBENCH <json>`` with the server's
  ``stats().snapshot()``, the layer totals and VmHWM, taken on the wire
  server's loop thread (the only thread that touches the server);
- ``probe`` prints ``PERFBENCH-PROBE <ns>``, the time of the
  benchmark's reference loop in this process (on its own CPU), asked
  for between two operations while the server is idle;
- ``stop``, or the end of input, interrupts the serve loop as Ctrl-C
  would.

When serve returns, a last ``PERFBENCH`` line adds its exit code and
the wire server's loop errors, and the process exits with serve's code.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv) -> int:
    if argv[:1] and argv[0].startswith("--cpu="):
        os.sched_setaffinity(0, {int(argv[0].split("=", 1)[1])})
        argv = argv[1:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    sys.stdout.reconfigure(line_buffering=True)

    import repro.__main__ as cli
    import repro.xserver.wire as wire
    from harness import cpu_probe_ns, vm_hwm_kb

    tracer = None
    if traced:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    live = {}
    make_server = cli.XServer

    def capture_server(*args, **kwargs):
        live["server"] = server = make_server(*args, **kwargs)
        return server

    class CapturedWireServer(wire.WireServer):
        def start(self):
            live["wire"] = self
            return super().start()

    cli.XServer = capture_server
    wire.WireServer = CapturedWireServer

    def report(**extra) -> None:
        payload = {
            "stats": live["server"].stats().snapshot(),
            "layers": tracer.totals() if tracer is not None else {},
            "vm_hwm_kb": vm_hwm_kb(),
        }
        payload.update(extra)
        print("PERFBENCH " + json.dumps(payload, default=str))

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "snapshot":
                live["wire"].call(report)
            elif command == "probe":
                print(f"PERFBENCH-PROBE {cpu_probe_ns()}")
            elif command == "stop":
                break
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    threading.Thread(target=control, name="perfbench-control",
                     daemon=True).start()
    code = cli.main(argv)
    report(code=code, errors=[repr(err) for err in live["wire"].errors])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
