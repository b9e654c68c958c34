"""Server instrumentation counters.

The paper's Virtual Desktop (§6) turns one user gesture — a pan — into
a flood of protocol traffic.  To make "as fast as the hardware allows"
measurable, the server keeps cheap counters, each one *series* of
:data:`SERIES`: a name and the labels that key it.  Layers write with
``stats.inc(name, *labels)``; ``stats.get(name, **labels)`` reads,
summing over the labels it is not given::

    stats.inc("delivered", client_id, "MotionNotify")
    stats.get("delivered", type="MotionNotify")     # every client
    stats.get("wire", transport="tcp", key="bytes_in")

``get`` refuses a series or label name :data:`SERIES` does not declare,
so a misspelt read raises ``KeyError`` instead of reading 0; label
*values* stay open (transports and wire keys appear at run time).
``delivered + coalesced`` for a type is the *raw* event count the
server produced; ``delivered`` is what clients really had to read.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

#: Cache families reported by :meth:`ServerStats.cache_counters`.
CACHE_KINDS = (
    "geometry", "visibility", "stacking_index", "interest", "region"
)

#: Every counter series: name -> the labels that key it, in order.
SERIES: Dict[str, Tuple[str, ...]] = {
    # One per request through a public XServer entry point.
    "requests": ("name",),
    # Pipeline outcomes (repro.xserver.pipeline): appended to a queue,
    # absorbed by coalescing, or discarded (fault injection, shedding,
    # ClientConnection.flush_events).
    "delivered": ("client", "type"),
    "coalesced": ("client", "type"),
    "dropped": ("client", "type"),
    # Backpressure (repro.xserver.quotas): sheds past high water (also
    # dropped), force-coalesces into an earlier queue entry, throttle
    # transitions; hard-quota denials and soft-band warnings by kind.
    "shed": ("client", "type", "reason"),
    "force_coalesced": ("client", "type"),
    "throttles": ("client",),
    "unthrottles": ("client",),
    "quota_denials": ("client", "kind"),
    "quota_warnings": ("client", "kind"),
    "grabs_broken": ("reason",),  # by the grab watchdog
    "injected": ("kind",),  # faults an installed FaultPlan applied
    "guarded": ("error",),  # X errors the WM's guarded() absorbed
    # Per transport ("loopback", "tcp", "framed"): frames_in/out,
    # bytes_in/out, pauses/resumes, protocol_errors and, with
    # resilience, the session lifecycle (repro.xserver.wire.resilience).
    "wire": ("transport", "key"),
    # Requests run inside execute_batch flush windows, notifications
    # batch coalescing squashed, Expose damage rects delivered.
    "batched": (),
    "batch_coalesced": (),
    "damage_rects": (),
}


class ServerStats:
    """Counters owned by one :class:`XServer`: a Counter per series,
    keyed by label tuple.  The window tree's cache counters stay slots
    on :class:`~repro.xserver.window.TreeCaches`, bumped many times per
    request where a keyed update would cost ~10x; they are summed here
    on read."""

    def __init__(self) -> None:
        self._series: Dict[str, Counter] = {name: Counter() for name in SERIES}
        #: TreeCaches bundles registered by the server (one per screen).
        self._cache_trees: List = []
        #: Structured tracer (repro.xserver.trace), see attach_tracer.
        self.tracer = None

    def track_cache(self, caches) -> None:
        """Aggregate a :class:`~repro.xserver.window.TreeCaches`."""
        self._cache_trees.append(caches)

    def attach_tracer(self, tracer) -> None:
        """Report the server's :class:`~repro.xserver.trace.Tracer`
        latency histograms under ``snapshot()["trace"]``."""
        self.tracer = tracer

    def inc(self, name: str, *labels, n: int = 1) -> None:
        """Add *n* to series *name* at *labels* (in :data:`SERIES`
        order).  Hot path: one dict lookup and one Counter update."""
        self._series[name][labels] += n

    def get(self, name: str, /, **labels) -> int:
        """Series *name* at the given labels, summed over the rest."""
        if name not in SERIES:
            raise KeyError(f"unknown stats series {name!r}")
        names = SERIES[name]
        for label in labels:
            if label not in names:
                raise KeyError(f"stats series {name!r} has no {label!r}")
        series = self._series[name]
        if len(labels) == len(names):
            return series[tuple(labels[label] for label in names)]
        wanted = [(names.index(label), v) for label, v in labels.items()]
        return sum(
            count for key, count in series.items()
            if all(key[i] == value for i, value in wanted)
        )

    def _by(self, name: str, *labels: str) -> dict:
        """Series *name* summed onto *labels*, nested in that order."""
        positions = [SERIES[name].index(label) for label in labels]
        *outer, leaf = positions
        out: dict = {}
        for key, count in self._series[name].items():
            node = out
            for i in outer:
                node = node.setdefault(key[i], {})
            node[key[leaf]] = node.get(key[leaf], 0) + count
        return out

    def cache_counters(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/invalidation counts per cache family, summed over
        every registered tree (one per screen)."""
        totals = {
            kind: {"hits": 0, "misses": 0, "invalidations": 0}
            for kind in CACHE_KINDS
        }
        for caches in self._cache_trees:
            for kind, counts in caches.counters().items():
                bucket = totals[kind]
                for key, value in counts.items():
                    bucket[key] += value
        return totals

    def cache_hit_rate(self, kind: Optional[str] = None) -> float:
        """hits / (hits + misses), optionally for one cache family;
        1.0 when there were no accesses at all."""
        counters = self.cache_counters()
        buckets = [counters[kind]] if kind else list(counters.values())
        hits = sum(bucket["hits"] for bucket in buckets)
        accesses = hits + sum(bucket["misses"] for bucket in buckets)
        return hits / accesses if accesses else 1.0

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for reports and assertions."""
        by = self._by
        return {
            "requests": by("requests", "name"),
            "delivered": by("delivered", "type"),
            "coalesced": by("coalesced", "type"),
            "delivered_by_client": by("delivered", "client", "type"),
            "coalesced_by_client": by("coalesced", "client", "type"),
            "dropped": by("dropped", "type"),
            "injected_faults": by("injected", "kind"),
            "guarded_errors": by("guarded", "error"),
            "quotas": {
                "denials": by("quota_denials", "client", "kind"),
                "warnings": by("quota_warnings", "client", "kind"),
                "shed": by("shed", "type"),
                "shed_by_client": by("shed", "client", "type"),
                "shed_reasons": by("shed", "reason"),
                "force_coalesced": by("force_coalesced", "type"),
                "throttles": by("throttles", "client"),
                "unthrottles": by("unthrottles", "client"),
                "grabs_broken": by("grabs_broken", "reason"),
            },
            "wire": by("wire", "transport", "key"),
            "batch": {
                "batched": self.get("batched"),
                "coalesced": self.get("batch_coalesced"),
                "damage_rects": self.get("damage_rects"),
            },
            "caches": self.cache_counters(),
            "trace": (
                self.tracer.snapshot()
                if self.tracer is not None
                else {"enabled": False, "spans": 0, "opcodes": {},
                      "subsystems": {}, "events": {}, "faults": {}}
            ),
        }

    def reset(self) -> None:
        """Zero every counter (benchmarks bracket measured regions).
        Cache *counters* reset too; the invalidation clocks do not, so
        cached state stays valid across a reset."""
        for series in self._series.values():
            series.clear()
        for caches in self._cache_trees:
            caches.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ServerStats requests={self.get('requests')} "
            f"delivered={self.get('delivered')} "
            f"coalesced={self.get('coalesced')}>"
        )
