"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` installs timing wrappers on the public surface of
each layer a request passes through (:data:`LAYERS`, in request order)
and keeps, per thread, a stack of open spans.  When a span closes, its
duration minus the time its child spans covered is added to its layer's
*self* time, and its full duration is charged to the parent span, so
the layers' self times add up to the time spent inside any wrapped
call.  Code that no wrapper covers (helpers such as the toolkit,
icccm or region algebra) is charged to the nearest enclosing span.

Module-level functions are rebound in every ``repro`` module that
imported them by name (``tcp.py`` and ``resilience.py`` import the
codec functions and ``dispatch_request`` that way), otherwise those
calls would go untimed.  Everything installed is recorded and
:meth:`LayerTracer.uninstall` restores the originals.

Nothing here is imported by the program; the benchmark installs it in
the traced run only, so the untraced run measures unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (layer, module, classes whose functions are timed, module functions
#: that are timed), in the order a request passes through the layers.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("client", "repro.xserver.client", ("ClientConnection",), ()),
    ("transport", "repro.xserver.wire.transport",
     ("LoopbackTransport", "ServerConnection"), ()),
    ("transport", "repro.xserver.wire.tcp",
     ("TcpTransport", "_WireProtocol", "WireServer"), ()),
    ("resilience", "repro.xserver.wire.resilience",
     ("WireSession", "ClientSession", "ReplayRing", "SessionTable",
      "ParkedSession", "Backoff"),
     ("rescue_expired",)),
    ("codec", "repro.xserver.wire.codec", (),
     ("encode_value", "decode_value", "encode_event", "decode_event",
      "encode_request", "decode_request", "encode_error", "decode_error")),
    ("dispatch", "repro.xserver.wire.transport", (),
     ("dispatch_request", "_execute_request")),
    ("server", "repro.xserver.server", ("XServer",), ()),
    ("quotas", "repro.xserver.quotas", ("QuotaManager",), ()),
    ("batch", "repro.xserver.batch", ("ActiveBatch",), ()),
    ("pipeline", "repro.xserver.pipeline",
     ("EventPipeline", "CoalescingStage", "BackpressureStage",
      "InstrumentationStage"), ()),
    ("pipeline", "repro.xserver.faults", ("FaultStage",), ()),
    ("wm", "repro.core.wm", ("Swm",), ()),
    ("wm.desktop", "repro.core.subsystems.desktop", ("DesktopController",), ()),
    ("wm.decor", "repro.core.subsystems.decor", ("DecorController",), ()),
    ("wm.iconify", "repro.core.subsystems.iconify", ("IconifyController",), ()),
    ("wm.focus", "repro.core.subsystems.focus", ("FocusController",), ()),
    ("wm.input", "repro.core.subsystems.input", ("InputController",), ()),
    ("wm.restart", "repro.core.subsystems.restart", ("RestartController",), ()),
    ("wm.requests", "repro.core.subsystems.requests", ("RedirectController",), ()),
    ("store", "repro.session.store", ("SessionStore",), ()),
    ("supervisor", "repro.session.supervisor", ("Supervisor",), ()),
    # The canned clients' own code, which would otherwise be charged to
    # the supervisor that launches them.
    ("apps", "repro.clients.base", ("SimApp",), ()),
    ("apps", "repro.clients.apps",
     ("OClock", "XEyes", "XTerm", "MultiWindowApp"), ()),
)

#: (module, class, function) -> layer, where a function belongs to
#: another layer than its class.  ``None`` leaves the function alone:
#: ``XServer._tick`` names the request after its caller's frame, so it
#: must be called directly by the request's own entry point.
OVERRIDES: Dict[Tuple[str, str, str], object] = {
    ("repro.xserver.server", "XServer", "execute_batch"): "batch",
    ("repro.xserver.server", "XServer", "_tick"): None,
}

#: The WM subsystems reported one by one (``wm.<name>.*`` metrics).
WM_SUBSYSTEMS = ("desktop", "decor", "iconify", "focus", "input",
                 "restart", "requests")

#: Pseudo-layer for time a client spends blocked in ``recv`` on its
#: socket (waiting for the server); charged separately from transport.
WAIT = "transport.wait"


def _timeable(value) -> bool:
    """Plain functions only: properties and static/class methods are
    skipped, and so are generator functions and already-decorated ones
    (``@contextmanager``), whose call returns before their body runs."""
    return (
        inspect.isfunction(value)
        and not inspect.isgeneratorfunction(value)
        and not hasattr(value, "__wrapped__")
    )


class LayerTracer:
    """Self time and call counts per layer, plus named event counters."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: SessionStore.save observations: payload bytes and whether the
        #: text repeated the previous save byte for byte.
        self.save_bytes = 0
        self.identical_saves = 0
        self._last_save_text = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, layer: str, fn: Callable) -> Callable:
        """*fn* wrapped in a span of *layer*."""
        totals, calls, local = self.self_ns, self.calls, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return span

    def counted(self, key: str, fn: Callable,
                when: Callable[[object], bool] = None) -> Callable:
        """*fn* counting its calls (or the calls whose result satisfies
        *when*) under *key*; opens no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            if when is None or when(result):
                counts[key] += 1
            return result

        return counter

    def _observe_save(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def save(store, text, *args, **kwargs):
            result = fn(store, text, *args, **kwargs)
            self.counts["store.saves"] += 1
            self.save_bytes += len(text.encode("utf-8"))
            if text == self._last_save_text:
                self.identical_saves += 1
            self._last_save_text = text
            return result

        return save

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, getattr(owner, name), own))
        setattr(owner, name, replacement)

    def _rebind(self, original, replacement) -> None:
        """Point every ``repro`` module attribute bound to *original*
        at *replacement*, including the defining module's own."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self, wait_sockets: bool = False) -> None:
        """Wrap every layer in :data:`LAYERS`.  With *wait_sockets*,
        time blocked socket reads as :data:`WAIT` (client processes of
        the TCP workload; no other sockets live there)."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        # Import every repro module first, so that _rebind sees each
        # module that imported a wrapped function by name.
        for package in ("repro", "repro.core", "repro.session",
                        "repro.clients", "repro.xserver.wire",
                        "repro.testing"):
            importlib.import_module(package)
        for layer, module_name, classes, functions in LAYERS:
            module = importlib.import_module(module_name)
            for class_name in classes:
                cls = getattr(module, class_name)
                for name, value in list(vars(cls).items()):
                    if not _timeable(value):
                        continue
                    if name.startswith("__") and name != "__init__":
                        continue
                    target = OVERRIDES.get(
                        (module_name, class_name, name), layer
                    )
                    if target is not None:
                        self._patch(cls, name, self.timed(target, value))
            for name in functions:
                original = getattr(module, name)
                self._rebind(original, self.timed(layer, original))
        from repro.session.store import SessionStore
        from repro.xserver.server import XServer
        from repro.xserver.window import Window
        from repro.xserver.wire.resilience import ClientSession

        self._patch(Window, "outer_rect_in_root", self.counted(
            "window.outer_rect_calls", Window.outer_rect_in_root
        ))
        self._patch(ClientSession, "ack_due", self.counted(
            "resilience.acks", ClientSession.ack_due,
            when=lambda seq: seq is not None,
        ))
        self._patch(XServer, "execute_batch", self.counted(
            "batch.calls", XServer.execute_batch
        ))
        self._patch(SessionStore, "save", self._observe_save(SessionStore.save))
        self._patch(os, "fsync", self.counted("store.fsyncs", os.fsync))
        if wait_sockets:
            import socket

            self._patch(socket.socket, "recv",
                        self.timed(WAIT, socket.socket.recv))

    def uninstall(self) -> None:
        """Restore everything :meth:`install` replaced, newest first."""
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- reading ----------------------------------------------------------

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()
        self.save_bytes = 0
        self.identical_saves = 0

    def totals(self) -> dict:
        """Plain-data copy of everything measured so far."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "save_bytes": self.save_bytes,
            "identical_saves": self.identical_saves,
        }


#: Layers whose self time is reported as ``<layer>.self_us_per_op``.
TIMED_LAYERS = ("client", "transport", "resilience", "codec", "dispatch",
                "server", "quotas", "batch", "pipeline", "wm", "store",
                "supervisor", "apps")

#: Cache families of ``stats().cache_counters()``.
CACHE_KINDS = ("geometry", "visibility", "stacking_index", "interest",
               "region")

#: Every per-layer metric: (name, unit, better).  DESIGN.md says which
#: end-to-end metric and workload each one should move.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("traced.us_per_op", "us", "lower"),
    ("unattributed.self_us_per_op", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("client.self_us_per_op", "us", "lower"),
    ("transport.self_us_per_op", "us", "lower"),
    ("transport.wait_us_per_op", "us", "lower"),
    ("server_process.self_us_per_op", "us", "lower"),
    ("transport.frames_per_op", "count", "lower"),
    ("transport.bytes_per_op", "B", "lower"),
    ("resilience.self_us_per_op", "us", "lower"),
    ("resilience.acks_per_op", "count", "lower"),
    ("resilience.pings_per_kop", "count", "lower"),
    ("codec.calls_per_op", "count", "lower"),
    ("codec.self_us_per_op", "us", "lower"),
    ("dispatch.self_us_per_op", "us", "lower"),
    ("server.self_us_per_op", "us", "lower"),
    ("server.requests_per_op", "count", "lower"),
    ("quotas.self_us_per_op", "us", "lower"),
) + tuple(
    (f"window.{kind}.hit_rate", "ratio", "higher") for kind in CACHE_KINDS
) + (
    ("window.invalidations_per_op", "count", "lower"),
    ("window.outer_rect_calls_per_op", "count", "lower"),
    ("region.damage_rects_per_op", "count", "lower"),
    ("batch.self_us_per_op", "us", "lower"),
    ("batch.ops_per_flush", "count", "higher"),
    ("batch.coalesced_frac", "ratio", "higher"),
    ("pipeline.self_us_per_op", "us", "lower"),
    ("pipeline.events_per_op", "count", "lower"),
    ("pipeline.coalesced_frac", "ratio", "higher"),
    ("pipeline.shed_per_kop", "count", "lower"),
    ("wm.self_us_per_op", "us", "lower"),
) + tuple(
    metric
    for name in WM_SUBSYSTEMS
    for metric in (
        (f"wm.{name}.calls_per_op", "count", "lower"),
        (f"wm.{name}.self_us_per_op", "us", "lower"),
    )
) + (
    ("wm.guarded_per_kop", "count", "lower"),
    ("store.saves_per_kop", "count", "lower"),
    ("store.fsyncs_per_kop", "count", "lower"),
    ("store.self_us_per_op", "us", "lower"),
    ("store.bytes_per_save", "B", "lower"),
    ("store.identical_frac", "ratio", "lower"),
    ("supervisor.self_us_per_op", "us", "lower"),
    ("apps.self_us_per_op", "us", "lower"),
)


def _ratio(part: float, whole: float, empty: float = 0.0) -> float:
    return part / whole if whole else empty


def layer_metrics(local: dict, remote: dict, stats: dict, ops: int,
                  elapsed_s: float, client_pings: int,
                  overhead: float) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    *local* and *remote* are :meth:`LayerTracer.totals` of this process
    and of the server process (empty on loopback workloads); *stats*
    is the server's ``stats().snapshot()`` delta over the phase.  The
    unattributed remainder is the traced time per op minus this
    process's layer self times.  On the TCP workload the layer metrics
    add the server process's self times, which overlap the client's
    ``transport.wait`` (partly: the server still flushes events while
    the client runs); ``server_process.self_us_per_op`` is their sum,
    so the layers minus it, plus the remainder, add up to the traced
    time there too."""
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    for totals in (local, remote):
        for key, value in totals.get("self_ns", {}).items():
            self_ns[key] += value
        for key, value in totals.get("calls", {}).items():
            calls[key] += value
        for key, value in totals.get("counts", {}).items():
            counts[key] += value
    save_bytes = local.get("save_bytes", 0) + remote.get("save_bytes", 0)
    identical = (local.get("identical_saves", 0)
                 + remote.get("identical_saves", 0))

    def us(ns: float) -> float:
        return ns / 1e3 / ops

    traced_us = elapsed_s * 1e6 / ops
    metrics = {
        "traced.us_per_op": traced_us,
        "unattributed.self_us_per_op":
            traced_us - us(sum(local.get("self_ns", {}).values())),
        "trace.overhead_frac": overhead,
    }
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_us_per_op"] = us(self_ns[layer])
    wire = stats.get("wire", {}).get("tcp", {})
    metrics["transport.wait_us_per_op"] = us(self_ns[WAIT])
    metrics["server_process.self_us_per_op"] = us(
        sum(remote.get("self_ns", {}).values()))
    metrics["transport.frames_per_op"] = (
        wire.get("frames_in", 0) + wire.get("frames_out", 0)) / ops
    metrics["transport.bytes_per_op"] = (
        wire.get("bytes_in", 0) + wire.get("bytes_out", 0)) / ops
    metrics["resilience.acks_per_op"] = counts["resilience.acks"] / ops
    metrics["resilience.pings_per_kop"] = (
        wire.get("pings_out", 0) + client_pings) * 1e3 / ops
    metrics["codec.calls_per_op"] = calls["codec"] / ops
    metrics["server.requests_per_op"] = sum(
        stats.get("requests", {}).values()) / ops
    caches = stats.get("caches", {})
    for kind in CACHE_KINDS:
        bucket = caches.get(kind, {})
        hits, misses = bucket.get("hits", 0), bucket.get("misses", 0)
        metrics[f"window.{kind}.hit_rate"] = _ratio(hits, hits + misses, 1.0)
    metrics["window.invalidations_per_op"] = sum(
        caches.get(kind, {}).get("invalidations", 0)
        for kind in ("geometry", "visibility", "stacking_index")
    ) / ops
    metrics["window.outer_rect_calls_per_op"] = (
        counts["window.outer_rect_calls"] / ops)
    batch = stats.get("batch", {})
    metrics["region.damage_rects_per_op"] = batch.get("damage_rects", 0) / ops
    batched = batch.get("batched", 0)
    metrics["batch.ops_per_flush"] = _ratio(batched, counts["batch.calls"])
    metrics["batch.coalesced_frac"] = _ratio(batch.get("coalesced", 0), batched)
    delivered = sum(stats.get("delivered", {}).values())
    coalesced = sum(stats.get("coalesced", {}).values())
    metrics["pipeline.events_per_op"] = (delivered + coalesced) / ops
    metrics["pipeline.coalesced_frac"] = _ratio(coalesced, delivered + coalesced)
    metrics["pipeline.shed_per_kop"] = sum(
        stats.get("quotas", {}).get("shed", {}).values()) * 1e3 / ops
    for name in WM_SUBSYSTEMS:
        metrics[f"wm.{name}.calls_per_op"] = calls[f"wm.{name}"] / ops
        metrics[f"wm.{name}.self_us_per_op"] = us(self_ns[f"wm.{name}"])
    metrics["wm.guarded_per_kop"] = sum(
        stats.get("guarded_errors", {}).values()) * 1e3 / ops
    saves = counts["store.saves"]
    metrics["store.saves_per_kop"] = saves * 1e3 / ops
    metrics["store.fsyncs_per_kop"] = counts["store.fsyncs"] * 1e3 / ops
    metrics["store.bytes_per_save"] = _ratio(save_bytes, saves)
    metrics["store.identical_frac"] = _ratio(identical, saves)
    return metrics
