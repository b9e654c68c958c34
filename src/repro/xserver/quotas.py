"""Per-client resource quotas and containment policy.

The server is a shared multi-tenant service — "swm is just a client"
(§1 of the paper) — so no single client, buggy or hostile, may exhaust
it.  A :class:`QuotaManager` (one per :class:`~repro.xserver.server.XServer`,
at ``server.quotas``) enforces four independent budgets:

========================  =========================  ======================
Resource                  Limit field                Default
========================  =========================  ======================
live windows              ``max_windows``            2048
total property bytes      ``max_property_bytes``     512 KiB
pending passive grabs     ``max_pending_grabs``      256
requests per tick window  ``max_requests_per_tick``  None (off)
========================  =========================  ======================

Breaching a hard limit raises :class:`QuotaExceeded` — a
``BadAlloc``-coded X error — *to the offender only*; bystanders never
see another client's denial.  Crossing ``soft_fraction`` (80%) of a
limit is merely counted as a warning in ``server.stats()`` so operators
see pressure building before denials start.

The same object owns the backpressure bookkeeping used by
:class:`~repro.xserver.pipeline.BackpressureStage` (queue water marks,
the throttled set) and the grab-watchdog clock driven by
``XServer.housekeeping_tick()``.  Defaults are deliberately generous:
a well-behaved WM plus a screenful of applications never comes near
them, and they cannot be switched off; tests that want pressure
construct a tight :class:`QuotaLimits` instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .errors import BadAlloc
from .properties import PROP_MODE_REPLACE


class QuotaExceeded(BadAlloc):
    """A client asked for more than its quota allows.

    Subclasses :class:`BadAlloc` (code 11) — this is the error a real
    server returns when it cannot honour an allocation — so every
    existing ``except XError`` degradation path absorbs it unchanged.
    """

    name = "QuotaExceeded"

    def __init__(self, resource, message: str = ""):
        super().__init__(resource, message or "per-client quota exceeded")


@dataclass
class QuotaLimits:
    """The tunable budget for one server.  ``None`` disables a limit."""

    #: Live (not destroyed) windows one client may own.
    max_windows: Optional[int] = 2048
    #: Total bytes of property data one client may have stored.
    max_property_bytes: Optional[int] = 512 * 1024
    #: Passive button+key grabs one client may have registered.
    max_pending_grabs: Optional[int] = 256
    #: Requests per housekeeping-tick window (off by default — only
    #: meaningful for workloads that actually pump housekeeping).
    max_requests_per_tick: Optional[int] = None
    #: Fraction of a limit past which a soft warning is counted.
    soft_fraction: float = 0.8
    #: Queue length where the backpressure stage starts force-coalescing
    #: and shedding sheddable event types.
    high_water: int = 4096
    #: Queue length a throttled client must drain to before the server
    #: resumes fanning events to it.
    low_water: int = 512
    #: Queue length past which the client is throttled outright.
    hard_cap: int = 8192
    #: How many queue entries (from the tail) force-coalescing scans
    #: for a partner before giving up and shedding.
    coalesce_scan: int = 64
    #: Housekeeping ticks a grab holder may go without draining its
    #: queue before the watchdog breaks the grab.
    grab_tick_budget: int = 8

    def soft(self, limit: Optional[int]) -> Optional[int]:
        """The warning threshold for *limit* (None when unlimited)."""
        if limit is None:
            return None
        return int(limit * self.soft_fraction)


def property_bytes(fmt: int, data) -> int:
    """Wire size of a property payload: format 8 counts bytes, formats
    16/32 count ``items * format / 8`` like a real server would."""
    if fmt == 8:
        return len(data)
    try:
        items = len(data)
    except TypeError:
        items = len(list(data))
    return items * (fmt // 8)


class QuotaManager:
    """Accounting + policy for one server's per-client budgets.

    The manager only *counts and decides*; the server performs the
    actual denials (raising from the request entry point) and teardown
    (breaking grabs, closing connections).  All counters survive in
    ``server.stats()`` so a (seed, workload) pair reproduces identical
    quota/shed/throttle numbers — the fuzz suite's replay oracle.
    """

    def __init__(self, stats, limits: Optional[QuotaLimits] = None) -> None:
        self.limits = limits if limits is not None else QuotaLimits()
        self.stats = stats
        #: client -> live windows it owns.
        self.windows: Counter = Counter()
        #: client -> total property bytes charged to it.
        self.prop_bytes: Counter = Counter()
        #: wid -> {atom: (charged client, bytes)} — the per-property
        #: ledger refunds are computed from.
        self._prop_charges: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: client -> requests since the last housekeeping tick.
        self.requests_this_tick: Counter = Counter()
        self._throttled: Set[int] = set()
        #: client -> consecutive housekeeping ticks spent throttled.
        self._throttle_ages: Counter = Counter()
        #: Clients that drained their queue since the last tick.
        self._drained: Set[int] = set()
        #: Housekeeping ticks seen (the watchdog clock).
        self.ticks = 0

    # -- throttling (driven by BackpressureStage + client drains) ---------

    def is_throttled(self, client_id: int) -> bool:
        return client_id in self._throttled

    def throttled_clients(self) -> FrozenSet[int]:
        return frozenset(self._throttled)

    def mark_throttled(self, client_id: int) -> None:
        if client_id not in self._throttled:
            self._throttled.add(client_id)
            self.stats.inc("throttles", client_id)

    def unthrottle(self, client_id: int) -> None:
        if client_id in self._throttled:
            self._throttled.discard(client_id)
            self._throttle_ages.pop(client_id, None)
            self.stats.inc("unthrottles", client_id)

    def note_drained(self, client_id: int, queue_length: int) -> None:
        """A client read from its queue — feed the watchdog and lift
        its throttle once it fell below the low-water mark."""
        self._drained.add(client_id)
        if client_id in self._throttled and queue_length <= self.limits.low_water:
            self.unthrottle(client_id)

    # -- the budget check --------------------------------------------------

    def _enforce(self, client_id: int, resource: str, count: int,
                 limit: int, denial: str, name: str = "") -> None:
        """Deny *count* over *limit*: count the denial and raise
        :class:`QuotaExceeded` with *denial*, a template over
        ``count``, ``limit`` and ``name``.  Past the soft mark, count a
        warning."""
        if count > limit:
            self.stats.inc("quota_denials", client_id, resource)
            raise QuotaExceeded(
                client_id, denial.format(count=count, limit=limit, name=name)
            )
        if count > self.limits.soft(limit):
            self.stats.inc("quota_warnings", client_id, resource)

    # -- request rate ------------------------------------------------------

    def charge_request(self, name: str, client_id: Optional[int]) -> None:
        limit = self.limits.max_requests_per_tick
        if limit is None or client_id is None:
            return
        count = self.requests_this_tick[client_id] + 1
        self.requests_this_tick[client_id] = count
        self._enforce(
            client_id, "requests", count, limit,
            "request rate {count}/tick exceeds quota {limit} ({name})", name,
        )

    # -- windows -----------------------------------------------------------

    def charge_window(self, client_id: Optional[int]) -> None:
        """Account one window about to be created (call before insert)."""
        if client_id is None:
            return
        limit = self.limits.max_windows
        count = self.windows[client_id] + 1
        if limit is not None:
            self._enforce(client_id, "windows", count, limit,
                          "live windows {count} exceed quota {limit}")
        self.windows[client_id] = count

    def note_window_destroyed(self, owner: Optional[int], wid: int) -> None:
        """Refund a destroyed window and every property charged on it."""
        if owner is not None and self.windows.get(owner, 0) > 0:
            self.windows[owner] -= 1
            if not self.windows[owner]:
                del self.windows[owner]
        charges = self._prop_charges.pop(wid, None)
        if charges:
            for client, nbytes in charges.values():
                self._refund_bytes(client, nbytes)

    # -- property bytes ----------------------------------------------------

    def prepare_property(
        self, client_id: Optional[int], wid: int, atom: int,
        fmt: int, data, mode: int,
    ) -> Tuple[Optional[int], int, int]:
        """Check the quota for a ChangeProperty about to run and return
        an opaque commit token.  Raises :class:`QuotaExceeded` *before*
        the property map is touched, so a denied request mutates
        nothing.  The resulting property is charged wholly to the
        acting client (append adopts the previous owner's bytes)."""
        old_client, old_bytes = self._prop_charges.get(wid, {}).get(
            atom, (None, 0)
        )
        new_bytes = property_bytes(fmt, data)
        result = new_bytes if mode == PROP_MODE_REPLACE else old_bytes + new_bytes
        limit = self.limits.max_property_bytes
        if limit is not None and client_id is not None:
            total = self.prop_bytes[client_id] + result
            if old_client == client_id:
                total -= old_bytes
            self._enforce(client_id, "property_bytes", total, limit,
                          "property bytes {count} exceed quota {limit}")
        return (old_client, old_bytes, result)

    def commit_property(
        self, client_id: Optional[int], wid: int, atom: int,
        token: Tuple[Optional[int], int, int],
    ) -> None:
        """Apply a prepared charge after the property change succeeded."""
        old_client, old_bytes, result = token
        if old_client is not None:
            self._refund_bytes(old_client, old_bytes)
        if client_id is None:
            self._prop_charges.get(wid, {}).pop(atom, None)
            return
        self.prop_bytes[client_id] += result
        self._prop_charges.setdefault(wid, {})[atom] = (client_id, result)

    def refund_property(self, wid: int, atom: int) -> None:
        """DeleteProperty: drop the charge for one property."""
        charges = self._prop_charges.get(wid)
        if not charges:
            return
        entry = charges.pop(atom, None)
        if entry is not None:
            self._refund_bytes(*entry)
        if not charges:
            del self._prop_charges[wid]

    def _refund_bytes(self, client: int, nbytes: int) -> None:
        remaining = self.prop_bytes.get(client, 0) - nbytes
        if remaining > 0:
            self.prop_bytes[client] = remaining
        else:
            self.prop_bytes.pop(client, None)

    def property_ledger(self) -> Dict[int, Dict[int, Tuple[int, int]]]:
        """The per-(window, atom) charge records (read-only use; the
        quota oracle cross-checks these against live server state)."""
        return self._prop_charges

    # -- grabs -------------------------------------------------------------

    def charge_grab(self, client_id: Optional[int], grabs) -> None:
        """Check a GrabButton/GrabKey about to register.  Counts lazily
        from the live :class:`~repro.xserver.input.GrabTable`, so there
        is no refund bookkeeping to drift."""
        limit = self.limits.max_pending_grabs
        if limit is None or client_id is None:
            return
        count = grabs.count_for_client(client_id) + 1
        self._enforce(client_id, "grabs", count, limit,
                      "pending grabs {count} exceed quota {limit}")

    # -- lifecycle ---------------------------------------------------------

    def drop_client(self, client_id: int) -> None:
        """The connection is gone: zero its budgets and throttle state.
        Property/window charges on surviving windows (abandon_client
        leaves zombies) are refunded too — the resources now belong to
        nobody and must not pin a reused client id's budget."""
        self.windows.pop(client_id, None)
        self.prop_bytes.pop(client_id, None)
        self.requests_this_tick.pop(client_id, None)
        self._throttled.discard(client_id)
        self._throttle_ages.pop(client_id, None)
        self._drained.discard(client_id)
        for charges in self._prop_charges.values():
            stale = [
                atom for atom, (owner, _) in charges.items()
                if owner == client_id
            ]
            for atom in stale:
                del charges[atom]

    def reset(self) -> None:
        """Server reset: every budget back to zero (limits survive)."""
        self.windows.clear()
        self.prop_bytes.clear()
        self._prop_charges.clear()
        self.requests_this_tick.clear()
        self._throttled.clear()
        self._throttle_ages.clear()
        self._drained.clear()

    # -- housekeeping (rate windows + throttle aging) ----------------------

    def begin_tick(self) -> Set[int]:
        """Advance the housekeeping clock.  Returns the set of clients
        that drained since the last tick (the watchdog's liveness
        signal) and resets the per-tick request-rate windows."""
        self.ticks += 1
        self.requests_this_tick.clear()
        drained, self._drained = self._drained, set()
        return drained

    def age_throttled(self, live_clients) -> Set[int]:
        """One tick of throttle aging.  Returns clients that have been
        throttled for more than the grab budget — the server prunes
        their passive grabs so a jammed client cannot keep stealing
        input it will never consume."""
        overdue: Set[int] = set()
        for client_id in list(self._throttled):
            if client_id not in live_clients:
                self._throttled.discard(client_id)
                self._throttle_ages.pop(client_id, None)
                continue
            self._throttle_ages[client_id] += 1
            if self._throttle_ages[client_id] > self.limits.grab_tick_budget:
                overdue.add(client_id)
        return overdue


__all__ = [
    "QuotaExceeded",
    "QuotaLimits",
    "QuotaManager",
    "property_bytes",
]
