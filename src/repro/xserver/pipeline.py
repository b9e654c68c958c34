"""The per-client event delivery pipeline.

Every event the server sends a client flows through an
:class:`EventPipeline` before it reaches the client's queue.  The
pipeline is a short list of pluggable stages; each stage inspects a
:class:`Delivery` and may rewrite the event or change its *outcome*:

- ``APPEND`` (default): the event is appended to the client's queue,
- ``COALESCE``: the event replaces the queue tail — used for event
  types where only the latest state matters (X11 motion-compression
  semantics, §6 of the paper: panning floods clients with
  MotionNotify/ConfigureNotify/Expose),
- ``DROP``: the event is discarded; later stages are skipped unless
  they set ``observes_drops`` (instrumentation does, to count losses).

The standard stages are :class:`CoalescingStage` (on by default;
clients opt out with ``ClientConnection.set_coalescing(False)``),
:class:`BackpressureStage` (bounds the queue: force-coalesce, then
shed, then throttle — see :mod:`repro.xserver.quotas`) and
:class:`InstrumentationStage`, which feeds the counters behind
``server.stats()``.  New stages subclass :class:`PipelineStage` and are
inserted with :meth:`EventPipeline.add_stage`; stage names must be
unique within a pipeline (lookup and removal are by name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Tuple

from . import events as ev

#: Delivery outcomes.
APPEND = "append"
COALESCE = "coalesce"
DROP = "drop"


@dataclass
class Delivery:
    """One event in flight to one client's queue."""

    event: ev.Event
    queue: Deque[ev.Event]
    client_id: int
    outcome: str = APPEND
    #: For COALESCE: the queue index the event replaces.  None keeps
    #: the classic tail replacement; the backpressure stage sets an
    #: explicit index when it coalesces into an older queue entry.
    coalesce_index: Optional[int] = None


class PipelineStage:
    """Base class for pipeline stages.

    Stages must not mutate ``delivery.queue`` directly; they signal
    intent through ``delivery.outcome`` and the pipeline applies it
    once every stage has run (so later stages — instrumentation — see
    the final outcome).
    """

    #: Stable name used to look the stage up in a pipeline.
    name = "stage"

    #: When True the stage still runs after an earlier stage chose
    #: DROP (instrumentation wants to count losses; most stages have
    #: nothing to do with a discarded event).
    observes_drops = False

    def __init__(self) -> None:
        self.enabled = True

    def process(self, delivery: Delivery) -> None:  # pragma: no cover
        raise NotImplementedError


class CoalescingStage(PipelineStage):
    """Compress runs of events where only the latest state matters.

    A new event replaces the queue tail when both carry the same
    *coalescing key*: the event type plus the window(s) it concerns.
    Events for differing windows never coalesce, and nothing coalesces
    across an intervening event of another type — only consecutive
    runs are compressed, so relative ordering is preserved exactly.
    """

    name = "coalesce"

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

    def process(self, delivery: Delivery) -> None:
        key = self.coalesce_key(delivery.event)
        if key is None or not delivery.queue:
            return
        if self.coalesce_key(delivery.queue[-1]) == key:
            delivery.outcome = COALESCE


#: Event types backpressure may shed outright: per X semantics these
#: carry only "latest state" / repaint hints, never protocol state a
#: client cannot recover (structural events are preserved up to the
#: hard cap).
SHEDDABLE_TYPES = (ev.MotionNotify, ev.Expose)


class BackpressureStage(PipelineStage):
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

    Runs after coalescing (an event the tail absorbed needs no
    pressure response) and before instrumentation (so sheds are counted
    as drops by the stats stage, plus in the dedicated shed counters).
    """

    name = "backpressure"

    def __init__(self, server, client_id: int) -> None:
        super().__init__()
        self.server = server
        self.client_id = client_id

    def process(self, delivery: Delivery) -> None:
        if delivery.outcome != APPEND:
            return
        quotas = self.server.quotas
        if not quotas.enabled:
            return
        limits = quotas.limits
        queue = delivery.queue
        event = delivery.event
        if quotas.is_throttled(self.client_id):
            delivery.outcome = DROP
            quotas.stats.inc(
                "shed", self.client_id, type(event).__name__, "throttled"
            )
            return
        queue_length = len(queue)
        if queue_length < limits.high_water:
            return
        key = CoalescingStage.coalesce_key(event)
        if key is not None:
            scan = min(queue_length, limits.coalesce_scan)
            for back in range(1, scan + 1):
                if CoalescingStage.coalesce_key(queue[-back]) == key:
                    delivery.outcome = COALESCE
                    delivery.coalesce_index = queue_length - back
                    quotas.stats.inc(
                        "force_coalesced", self.client_id,
                        type(event).__name__,
                    )
                    return
        if queue_length >= limits.hard_cap:
            quotas.mark_throttled(self.client_id)
            delivery.outcome = DROP
            quotas.stats.inc(
                "shed", self.client_id, type(event).__name__, "capped"
            )
            return
        if isinstance(event, SHEDDABLE_TYPES):
            delivery.outcome = DROP
            quotas.stats.inc(
                "shed", self.client_id, type(event).__name__, "overflow"
            )


class InstrumentationStage(PipelineStage):
    """Count deliveries into a shared :class:`ServerStats`.

    Runs last so it observes the final outcome of the stages before
    it: appended events count as *delivered*, tail-replacements count
    as *coalesced* (the queue length, and hence what the client will
    actually read, is unchanged).
    """

    name = "stats"
    observes_drops = True

    def __init__(self, stats, client_id: int, tracer=None) -> None:
        super().__init__()
        self.stats = stats
        self.client_id = client_id
        #: Optional structured tracer (see repro.xserver.trace): when
        #: enabled, every delivery earns an event span tagged with its
        #: final outcome.  None / disabled costs one attribute test.
        self.tracer = tracer

    def process(self, delivery: Delivery) -> None:
        type_name = type(delivery.event).__name__
        if delivery.outcome == DROP:
            self.stats.inc("dropped", self.client_id, type_name)
        elif delivery.outcome == COALESCE:
            self.stats.inc("coalesced", self.client_id, type_name)
        elif delivery.outcome == APPEND:
            self.stats.inc("delivered", self.client_id, type_name)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.record_event(
                type_name,
                getattr(delivery.event, "time", 0) or 0,
                self.client_id,
                delivery.outcome,
            )


class EventPipeline:
    """An ordered chain of stages between the server and one queue."""

    def __init__(self, stages: Iterable[PipelineStage] = ()) -> None:
        self.stages: List[PipelineStage] = list(stages)

    def deliver(
        self, event: ev.Event, queue: Deque[ev.Event], client_id: int = 0
    ) -> str:
        """Run *event* through the stages and apply the outcome to
        *queue*.  Returns the outcome (APPEND / COALESCE / DROP)."""
        delivery = Delivery(event, queue, client_id)
        for stage in self.stages:
            if not stage.enabled:
                continue
            if delivery.outcome == DROP and not stage.observes_drops:
                continue
            stage.process(delivery)
        if delivery.outcome == DROP:
            return DROP
        if delivery.outcome == COALESCE:
            if delivery.coalesce_index is None:
                queue[-1] = delivery.event
            else:
                queue[delivery.coalesce_index] = delivery.event
        else:
            queue.append(delivery.event)
        return delivery.outcome

    # -- stage management -------------------------------------------------

    def stage(self, name: str) -> Optional[PipelineStage]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def add_stage(
        self, stage: PipelineStage, before: Optional[str] = None
    ) -> None:
        """Insert *stage*, optionally before the named existing stage
        (instrumentation should generally stay last).  When *before*
        names no existing stage the new stage is appended.  Duplicate
        stage names are rejected: :meth:`stage` and
        :meth:`remove_stage` address stages by name, so a second
        "coalesce" would be unreachable by either."""
        if self.stage(stage.name) is not None:
            raise ValueError(
                f"pipeline already has a stage named {stage.name!r}"
            )
        if before is not None:
            for index, existing in enumerate(self.stages):
                if existing.name == before:
                    self.stages.insert(index, stage)
                    return
        self.stages.append(stage)

    def remove_stage(self, name: str) -> Optional[PipelineStage]:
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return self.stages.pop(index)
        return None
