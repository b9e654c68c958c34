"""Deterministic fault injection at the client<->server boundary.

The paper's headline claims — session restart via ``f.places``, save-set
survival of decorated clients, ``swmcmd`` driving the WM from outside —
are exactly the paths that break when a client dies mid-protocol.  This
module makes failure a first-class, *deterministic* input to the system,
in the spirit of "Simple Testing Can Prevent Most Critical Failures"
(Yuan et al., OSDI 2014): a seeded :class:`FaultPlan` holds declarative
:class:`FaultRule` entries and is installed on a server with
``server.install_faults(plan)``.

Fault kinds
-----------

``error``
    A matching request raises an X error (BadWindow / BadMatch /
    BadAccess / any name in :data:`ERROR_BY_NAME`) instead of running.
    The server's state is untouched — the request never happened.

``kill``
    The requesting client's connection dies abruptly mid-protocol.
    ``when="before"`` closes the connection and raises
    :class:`ConnectionClosed` before the request runs; ``when="after"``
    lets the request succeed, then the connection is torn down at the
    next request tick (the classic "reply arrived, then the pipe
    broke").  Closing runs the full disconnect path — save-set
    reparents, window destruction, UnmapNotify/DestroyNotify races.

``stale``
    A stale-XID race: the window a request is about to touch is
    destroyed *between lookup and use*, so the request then fails with
    a genuine BadWindow from the server's own validation — exactly the
    TOCTOU race a real WM sees when a client exits asynchronously.

``crash``
    The *window manager* dies at this request: :class:`WMCrash` is
    raised out of the requesting call before the request runs.  Unlike
    an injected X error, a crash is deliberately **not** an
    :class:`XError`, so the WM's guarded()/event-pump degradation paths
    cannot absorb it — it rips straight through to the session
    supervisor (see :mod:`repro.session.supervisor`), which must clean
    up the corpse and restart the WM.  Each (request prefix,
    ``arm_after``) pair names one distinct crash point; the restart
    chaos suite enumerates dozens of them.

``flood``
    The requesting client turns hostile mid-run: the server issues a
    synchronous burst (``FaultRule.burst`` requests) of property
    rewrites and SendEvent spam on its behalf, then lets the original
    request proceed.  The storm runs with the plan suspended — zero RNG
    draws, no nested faults — so it is bit-deterministic, and quota
    denials it provokes land on the flooder alone (see
    :mod:`repro.xserver.quotas`).

``drop``
    A matching event is silently discarded before it reaches the
    client's queue (a lost wakeup).

``delay``
    A matching event is held back instead of delivered; the test calls
    :meth:`FaultPlan.release_delayed` to flush held events later, out
    of their original arrival window (reordered delivery).

``partition`` / ``lag`` / ``reorder`` / ``truncate`` / ``corrupt`` / ``duplicate``
    Link faults, applied frame-by-frame to the byte stream of a wire
    transport by :class:`~repro.xserver.wire.resilience.LinkFaultInjector`:
    a partition drops the frame and cuts the link; lag holds the frame
    for ``FaultRule.lag`` later frames (reorder is lag of one — an
    adjacent swap); truncate emits half the frame then cuts (a peer
    dying mid-write); corrupt flips the frame's version byte (the
    decoder poisons deterministically); duplicate sends the frame
    twice.  ``FaultRule.direction`` narrows a rule to the client->server
    (``"c2s"``) or server->client (``"s2c"``) half of the link.

Request-side faults (error/kill/stale/crash/flood/shard_crash/
shard_hang) hook the server's per-request tick; delivery-side faults
(drop/delay) run as a :class:`FaultStage` at the head of each client's
event pipeline; link faults run in the wire transit.  All three ask
one picker, :meth:`FaultPlan.pick`, which consumes the plan's private
seeded RNG in rule order, so the same seed and the same workload replay
the same fault sequence exactly.  A fault that is applied goes through
one recorder, :meth:`FaultPlan.record`: it is appended to
:attr:`FaultPlan.log` for post-mortems and counts toward its rule's
``fires``; the server and the wire also count it in ``server.stats()``
(``injected_faults``).
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ERROR_BY_CODE, XError

#: Fault kinds.
ERROR = "error"
KILL = "kill"
STALE = "stale"
CRASH = "crash"
FLOOD = "flood"
SHARD_CRASH = "shard_crash"
SHARD_HANG = "shard_hang"
DROP = "drop"
DELAY = "delay"
PARTITION = "partition"
LAG = "lag"
REORDER = "reorder"
TRUNCATE = "truncate"
CORRUPT = "corrupt"
DUPLICATE = "duplicate"

#: Kinds decided at request time (server tick) vs. delivery time
#: (pipeline) vs. frame-transit time (wire link injector).  Shard
#: kinds are request-time too — the whole display shard dies at a
#: request boundary — but raise past the WM supervisor so only a
#: display router may absorb them.
REQUEST_KINDS = (ERROR, KILL, STALE, CRASH, FLOOD, SHARD_CRASH, SHARD_HANG)
SHARD_KINDS = (SHARD_CRASH, SHARD_HANG)
DELIVERY_KINDS = (DROP, DELAY)
LINK_KINDS = (PARTITION, LAG, REORDER, TRUNCATE, CORRUPT, DUPLICATE)

#: Error name -> exception class (the rule syntax uses names).
ERROR_BY_NAME = {cls.name: cls for cls in ERROR_BY_CODE.values()}


class ConnectionClosed(Exception):
    """The X connection died mid-protocol (injected client kill)."""

    def __init__(self, client_id: int):
        self.client_id = client_id
        super().__init__(f"connection to client {client_id} closed")

    def renewed(self) -> "ConnectionClosed":
        """A new exception saying the same, to raise again: raising one
        object over and over grows its traceback and keeps old frames
        alive."""
        return ConnectionClosed(self.client_id)


class WMCrash(Exception):
    """The window manager process died at an injected crash point.

    Not an :class:`XError` on purpose: X errors are survivable protocol
    weather the WM absorbs with ``guarded()``, while a crash is the WM
    process itself going down — only the supervisor may catch it."""

    def __init__(self, crash_point: str, client_id: Optional[int] = None):
        self.crash_point = crash_point
        self.client_id = client_id
        super().__init__(f"wm crashed at {crash_point}")


class ShardFault(Exception):
    """Base of the shard-level fault family.

    Deliberately *not* a :class:`WMCrash` subclass: a WM supervisor
    must never absorb a whole-shard failure as if it were its own WM
    dying — the display router is the only layer allowed to catch
    these (the same reasoning that keeps WMCrash out of XError)."""

    verb = "failed"

    def __init__(self, crash_point: str, client_id: Optional[int] = None):
        self.crash_point = crash_point
        self.client_id = client_id
        super().__init__(f"shard {self.verb} at {crash_point}")


class ShardCrash(ShardFault):
    """The entire display shard (server + WM) died at a request."""

    verb = "crashed"


class ShardHang(ShardFault):
    """The display shard stopped answering (wedged, not dead)."""

    verb = "hung"


def error_class(name: str) -> type:
    try:
        return ERROR_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown X error name {name!r}") from None


ClientFilter = Union[None, Sequence[int], Callable[[int], bool]]


@dataclass
class FaultRule:
    """One declarative fault: *what* to inject, *where*, *how often*.

    ``requests`` / ``events`` are sequences of name prefixes
    (``("configure",)`` matches ``configure_window``; a bare string is
    refused); ``None`` matches everything of the rule's kind.
    ``clients`` restricts the victim set: a collection of client ids or
    a predicate (chaos tests use this to spare the WM's own connection
    from kills).  ``probability`` is checked against the
    plan's seeded RNG once per matching opportunity; ``arm_after``
    skips the first N matches (let a scenario get going before
    faulting) and ``max_fires`` caps total injections from this rule.
    """

    kind: str
    probability: float = 1.0
    requests: Optional[Sequence[str]] = None
    events: Optional[Sequence[str]] = None
    clients: ClientFilter = None
    error: str = "BadWindow"
    when: str = "before"  # kill only: before | after the request runs
    burst: int = 40  # flood only: requests per storm
    direction: Optional[str] = None  # link only: None (both) | c2s | s2c
    lag: int = 1  # lag only: frames to hold a lagged frame for
    arm_after: int = 0
    max_fires: Optional[int] = None
    name: str = ""
    # Runtime bookkeeping (mutated as the plan runs).
    seen: int = field(default=0, compare=False)
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS + DELIVERY_KINDS + LINK_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        for label, names in (("requests", self.requests),
                             ("events", self.events)):
            if isinstance(names, str):
                # A str is a sequence of one-letter prefixes.
                raise ValueError(
                    f"{label}= takes a sequence of names, not the string"
                    f" {names!r}"
                )
        if self.kind == ERROR:
            error_class(self.error)  # validate eagerly
        if self.when not in ("before", "after"):
            raise ValueError(f"kill 'when' must be before/after, not {self.when!r}")
        if self.direction not in (None, "c2s", "s2c"):
            raise ValueError(
                f"link 'direction' must be c2s/s2c/None, not {self.direction!r}"
            )

    def matches(
        self, target: str, client_id: Optional[int], dedupable: bool = True
    ) -> bool:
        """Whether this rule applies to *target*: a request name or an
        event type name (against the ``requests`` / ``events`` name
        prefixes), or for a link rule a direction (against
        ``direction``).  *dedupable* says whether a link frame is one
        the protocol deduplicates."""
        if self.kind in LINK_KINDS:
            if self.direction not in (None, target):
                return False
            # Duplication only matches frames the protocol dedups (events
            # by sequence number, heartbeats and acks by idempotence): a
            # stream transport cannot duplicate within a connection, so a
            # duplicated REQUEST/REPLY would model nothing real while
            # silently desyncing the reply ledger beyond any resume.
            if self.kind == DUPLICATE and not dedupable:
                return False
        else:
            prefixes = self.requests if self.kind in REQUEST_KINDS else self.events
            if prefixes is not None and not target.startswith(tuple(prefixes)):
                return False
        if self.clients is None:
            return True
        # Device input has no client and a handshake frame no client id
        # yet; a rule with a client filter never matches those.
        if client_id is None:
            return False
        if callable(self.clients):
            return bool(self.clients(client_id))
        return client_id in self.clients

    def exhausted(self) -> bool:
        return self.max_fires is not None and self.fires >= self.max_fires

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or self.kind
        return f"<FaultRule {label} kind={self.kind} fires={self.fires}>"


@dataclass
class InjectedFault:
    """One applied fault, recorded for replay/post-mortem."""

    serial: int
    kind: str
    target: str  # request or event type name
    client_id: Optional[int]
    detail: str = ""
    rule: Optional[FaultRule] = None


class FaultPlan:
    """A seeded set of fault rules plus its injection history.

    The plan owns a private :class:`random.Random`; rules are consulted
    in insertion order and each probability check consumes exactly one
    draw, so a (seed, workload) pair replays bit-identically.  Tests
    bracket their invariant checks with :meth:`suspended` so the
    checking traffic itself is never perturbed.
    """

    def __init__(self, seed: int, rules: Iterable[FaultRule] = ()):
        self.seed = seed
        self.rng = random.Random(seed)
        self.rules: List[FaultRule] = list(rules)
        self.enabled = True
        self.counts: Counter = Counter()
        self.log: List[InjectedFault] = []
        #: Events held back by delay rules: (client_id, event).
        self._held: List[Tuple[int, object]] = []
        #: Clients condemned by kill(when="after"), closed at next tick.
        self._pending_kills: List[int] = []
        #: True while release_delayed is re-delivering (no re-faulting).
        self._releasing = False
        self._serial = 0

    # -- rule construction -------------------------------------------------

    def rule(self, kind: str, **kwargs) -> FaultRule:
        """Append and return a new :class:`FaultRule`."""
        rule = FaultRule(kind, **kwargs)
        self.rules.append(rule)
        return rule

    # -- bookkeeping -------------------------------------------------------

    def record(
        self,
        rule: FaultRule,
        target: str,
        client_id: Optional[int],
        detail: str = "",
    ) -> None:
        """Log one applied fault.  The only place ``rule.fires`` grows:
        a rule :meth:`pick` returned but its caller declined to apply
        (no target to hit) never counts as fired."""
        rule.fires += 1
        self._serial += 1
        self.counts[rule.kind] += 1
        self.log.append(
            InjectedFault(self._serial, rule.kind, target, client_id, detail, rule)
        )

    def total_injected(self) -> int:
        return sum(self.counts.values())

    def injected(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return self.total_injected()
        return self.counts[kind]

    # -- enable/disable ----------------------------------------------------

    @contextmanager
    def suspended(self):
        """Temporarily stop injecting (checkpoint traffic runs clean)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = previous

    # -- decisions -----------------------------------------------------------

    def pick(
        self,
        kinds: Sequence[str],
        target: str,
        client_id: Optional[int],
        dedupable: bool = True,
    ) -> Optional[FaultRule]:
        """The first rule of one of *kinds* that fires at *target* — a
        request name (server tick), an event type name (delivery) or a
        link direction (frame transit) — if any.

        Rules are consulted in order and each matching armed rule costs
        exactly one RNG draw.  At most one fault fires per opportunity:
        composing a kill with an error on one request, or two link
        faults on one frame, has no analogue in the protocol.  A caller
        that applies the rule logs it with :meth:`record`.
        """
        if not self.enabled or self._releasing:
            return None
        for rule in self.rules:
            if rule.kind not in kinds or not rule.matches(target, client_id, dedupable):
                continue
            rule.seen += 1
            if rule.seen <= rule.arm_after or rule.exhausted():
                continue
            if self.rng.random() < rule.probability:
                return rule
        return None

    def defer_kill(self, client_id: int) -> None:
        self._pending_kills.append(client_id)

    def take_pending_kills(self) -> List[int]:
        pending, self._pending_kills = self._pending_kills, []
        return pending

    def hold(self, client_id: int, event) -> None:
        self._held.append((client_id, event))

    def held_count(self) -> int:
        return len(self._held)

    def release_delayed(self, server, shuffle: bool = False) -> int:
        """Re-deliver every held event to its client, optionally in a
        seeded-shuffled order (reordered delivery).  Held events for
        clients that died in the meantime are dropped on the floor, as
        a real server would."""
        held, self._held = self._held, []
        if shuffle:
            self.rng.shuffle(held)
        released = 0
        self._releasing = True
        try:
            for client_id, event in held:
                client = server.clients.get(client_id)
                if client is None:
                    continue
                client.queue_event(event)
                released += 1
        finally:
            self._releasing = False
        return released

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FaultPlan seed={self.seed} rules={len(self.rules)} "
            f"injected={self.total_injected()}>"
        )


class FaultStage:
    """The delivery pipeline's first step: drop/delay rules.

    It runs before coalescing and backpressure (see
    :class:`~repro.xserver.pipeline.EventPipeline`), so an injected
    loss happens first — a dropped event was never produced as far as
    the client can tell, and only the counters still see it."""

    def __init__(self, server, client_id: int) -> None:
        self.server = server
        self.client_id = client_id

    def drops(self, event) -> bool:
        """True when a delivery rule fired: the event is discarded or
        held for :meth:`FaultPlan.release_delayed`."""
        plan = self.server.faults
        if plan is None:
            return False
        type_name = type(event).__name__
        rule = plan.pick(DELIVERY_KINDS, type_name, self.client_id)
        if rule is None:
            return False
        if rule.kind == DELAY:
            plan.hold(self.client_id, event)
            detail = "held for release"
        else:
            detail = "discarded"
        plan.record(rule, type_name, self.client_id, detail)
        self.server.stats().inc("injected", rule.kind)
        return True


__all__ = [
    "CORRUPT",
    "CRASH",
    "ConnectionClosed",
    "DELAY",
    "DELIVERY_KINDS",
    "DROP",
    "DUPLICATE",
    "ERROR",
    "ERROR_BY_NAME",
    "FLOOD",
    "FaultPlan",
    "FaultRule",
    "FaultStage",
    "InjectedFault",
    "KILL",
    "LAG",
    "LINK_KINDS",
    "PARTITION",
    "REORDER",
    "REQUEST_KINDS",
    "SHARD_CRASH",
    "SHARD_HANG",
    "SHARD_KINDS",
    "STALE",
    "ShardCrash",
    "ShardFault",
    "ShardHang",
    "TRUNCATE",
    "WMCrash",
    "XError",
    "error_class",
]
