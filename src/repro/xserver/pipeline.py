"""The per-client event delivery pipeline.

Every event the server sends a client goes through that connection's
:class:`EventPipeline` before it reaches the client's queue.  The
paper's Virtual Desktop (§6) is why: one pan floods clients with
MotionNotify, ConfigureNotify and Expose events.  Each delivery takes
the same fixed path; every step returns its decision and
:meth:`EventPipeline.deliver` applies the final *outcome* to the queue
once:

1. faults (:class:`~repro.xserver.faults.FaultStage`): an installed
   fault plan may drop or delay the event — ``DROP``, and only the
   counters see it after this;
2. coalescing (:class:`CoalescingStage`), while the connection's
   ``coalescing`` is on (the default; clients opt out with
   ``ClientConnection.set_coalescing(False)``): an event with the same
   key as the queue tail replaces it — ``COALESCE``, X11
   motion-compression semantics;
3. backpressure (:class:`BackpressureStage`), for an event still to be
   appended: force-coalesce into an older entry, shed, or throttle
   (see :mod:`repro.xserver.quotas`);
4. instrumentation (:class:`InstrumentationStage`): count the final
   outcome in ``server.stats()`` and trace it.

An event no step claims is appended (``APPEND``).  The order is the
contract: a dropped event is never coalesced, a tail-absorbed event
needs no pressure response, and a shed event is counted as dropped.
"""

from __future__ import annotations

from typing import Deque, Optional, Tuple

from . import events as ev
from .faults import FaultStage

#: Delivery outcomes.
APPEND = "append"
COALESCE = "coalesce"
DROP = "drop"


class CoalescingStage:
    """Compress runs of events where only the latest state matters.

    A new event replaces the queue tail when both carry the same
    *coalescing key*: the event type plus the window(s) it concerns.
    Events for differing windows never coalesce, and nothing coalesces
    across an intervening event of another type — only consecutive
    runs are compressed, so relative ordering is preserved exactly.
    """

    @staticmethod
    def coalesce_key(event: ev.Event) -> Optional[Tuple]:
        """The identity a run must share, or None if never coalesced."""
        cls = type(event)
        if cls is ev.MotionNotify:
            return (cls, event.window)
        if cls is ev.ConfigureNotify:
            return (cls, event.window, event.configured_window)
        if cls is ev.Expose:
            return (cls, event.window)
        return None

    def absorbs(self, event: ev.Event, queue: Deque[ev.Event]) -> bool:
        """True when *event* should replace the queue tail."""
        key = self.coalesce_key(event)
        if key is None or not queue:
            return False
        return self.coalesce_key(queue[-1]) == key


#: Event types backpressure may shed outright: per X semantics these
#: carry only "latest state" / repaint hints, never protocol state a
#: client cannot recover (structural events are preserved up to the
#: hard cap).
SHEDDABLE_TYPES = (ev.MotionNotify, ev.Expose)

#: Backpressure decisions that touch no existing queue entry.
_ADMIT = (APPEND, -1)
_SHED = (DROP, -1)


class BackpressureStage:
    """Bound a client's queue so a non-draining client cannot grow
    memory without limit or absorb server time (see
    :mod:`repro.xserver.quotas` for the policy knobs).

    Escalation past the *high-water* mark, in order:

    1. **force-coalesce** — scan the queue tail (up to
       ``coalesce_scan`` entries) for an event with the same coalescing
       key and replace it in place, even across intervening events of
       other types (normal coalescing only compresses consecutive runs);
    2. **shed** — drop :data:`SHEDDABLE_TYPES` (Motion/Expose first, as
       a real server sheds under pressure); structural events still
       append;
    3. **throttle** — at the *hard cap* the client is marked throttled:
       everything is shed until it drains below the *low-water* mark
       (``ClientConnection`` reports drains back to the quota manager).
    """

    def __init__(self, server, client_id: int) -> None:
        self.server = server
        self.client_id = client_id

    def admit(self, event: ev.Event, queue: Deque[ev.Event]) -> Tuple[str, int]:
        """The outcome for an event about to be appended, and for
        COALESCE the queue index it replaces."""
        quotas = self.server.quotas
        limits = quotas.limits
        if quotas.is_throttled(self.client_id):
            quotas.stats.inc(
                "shed", self.client_id, type(event).__name__, "throttled"
            )
            return _SHED
        queue_length = len(queue)
        if queue_length < limits.high_water:
            return _ADMIT
        key = CoalescingStage.coalesce_key(event)
        if key is not None:
            scan = min(queue_length, limits.coalesce_scan)
            for back in range(1, scan + 1):
                if CoalescingStage.coalesce_key(queue[-back]) == key:
                    quotas.stats.inc(
                        "force_coalesced", self.client_id,
                        type(event).__name__,
                    )
                    return COALESCE, queue_length - back
        if queue_length >= limits.hard_cap:
            quotas.mark_throttled(self.client_id)
            quotas.stats.inc(
                "shed", self.client_id, type(event).__name__, "capped"
            )
            return _SHED
        if isinstance(event, SHEDDABLE_TYPES):
            quotas.stats.inc(
                "shed", self.client_id, type(event).__name__, "overflow"
            )
            return _SHED
        return _ADMIT


#: The stats series each outcome is counted in.
_SERIES = {APPEND: "delivered", COALESCE: "coalesced", DROP: "dropped"}


class InstrumentationStage:
    """Count deliveries into a shared :class:`ServerStats`: appended
    events count as *delivered*, replacements as *coalesced* (the queue
    length, and hence what the client will actually read, is
    unchanged), drops and sheds as *dropped*."""

    def __init__(self, stats, client_id: int, tracer) -> None:
        self.stats = stats
        self.client_id = client_id
        #: The server's structured tracer (see repro.xserver.trace):
        #: when enabled, every delivery earns an event span tagged with
        #: its final outcome; disabled costs one attribute test.
        self.tracer = tracer

    def count(self, event: ev.Event, outcome: str) -> None:
        type_name = type(event).__name__
        self.stats.inc(_SERIES[outcome], self.client_id, type_name)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record_event(
                type_name, getattr(event, "time", 0) or 0, self.client_id,
                outcome,
            )


class EventPipeline:
    """The fixed delivery path between the server and one client's
    queue; ``coalescing`` is the only thing that changes at run time."""

    def __init__(self, server, client_id: int, coalescing: bool = True) -> None:
        self.coalescing = coalescing
        self.faults = FaultStage(server, client_id)
        self.coalescer = CoalescingStage()
        self.backpressure = BackpressureStage(server, client_id)
        self.instrumentation = InstrumentationStage(
            server.stats(), client_id, server.tracer
        )

    def deliver(self, event: ev.Event, queue: Deque[ev.Event]) -> str:
        """Run *event* through the steps and apply the outcome to
        *queue*.  Returns the outcome (APPEND / COALESCE / DROP)."""
        index = -1
        if self.faults.drops(event):
            outcome = DROP
        elif self.coalescing and self.coalescer.absorbs(event, queue):
            outcome = COALESCE
        else:
            outcome, index = self.backpressure.admit(event, queue)
        self.instrumentation.count(event, outcome)
        if outcome == APPEND:
            queue.append(event)
        elif outcome == COALESCE:
            queue[index] = event
        return outcome
