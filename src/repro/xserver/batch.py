"""Batched request execution: coalesced event synthesis.

The server executes every request in a batch through its *real* entry
point (``XServer.configure_window`` etc.), so per-request semantics —
fault-injection RNG draws, quota charges, request stats, traces, and
the state mutations later requests in the batch observe — are
bit-identical to unbatched execution.  What a batch changes is purely
the *derived* work: ConfigureNotify / PropertyNotify / Expose synthesis
and the pointer-window refresh are deferred into an :class:`ActiveBatch`
and emitted once per coalescing key at flush time:

- ``configure_window`` — last write wins per window: one
  ConfigureNotify reflecting the final state (stacking ops fused into
  it via the final ``above_sibling``), one damage-region Expose pass if
  the window's final size outgrew its size at first touch, and a single
  pointer refresh per flush instead of one per request.
- ``change_property`` / ``delete_property`` — overwrite squashing per
  ``(window, atom)``: one PropertyNotify with the last state.

Split rules: the batch flushes early whenever a fault rule fires
(before its side effects — see ``XServer._apply_faults``), whenever an
op raises an X error (including quota denials), and unconditionally at
batch end.  Emission order is first-touch order, which keeps e.g. a
DestroyNotify from overtaking the ConfigureNotifys that preceded it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING, Union

from . import events as ev
from .event_mask import EventMask
from .window import Window

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import XServer


class _PendingConfigure:
    """Deferred notify state for one window's configure run."""

    __slots__ = ("window", "width0", "height0", "count")

    def __init__(self, window: Window):
        self.window = window
        # Size at first touch: "grew" is judged across the whole run,
        # so shrink-then-regrow inside one batch exposes only if the
        # final size exceeds the original (net damage, not churn).
        self.width0 = window.width
        self.height0 = window.height
        self.count = 1


class _PendingProperty:
    """Deferred notify state for one (window, atom)."""

    __slots__ = ("window", "atom", "state", "count")

    def __init__(self, window: Window, atom: int, state: int):
        self.window = window
        self.atom = atom
        self.state = state
        self.count = 1


_Pending = Union[_PendingConfigure, _PendingProperty]


class ActiveBatch:
    """The open flush window ``XServer.execute_batch`` maintains.

    Keyed, insertion-ordered pending notifications; the request entry
    points note into it instead of synthesising events directly while
    ``server._batch`` is set."""

    def __init__(self) -> None:
        self._pending: Dict[Tuple, _Pending] = {}

    def note_configure(self, window: Window) -> None:
        key = ("configure", window.id)
        item = self._pending.get(key)
        if item is None:
            self._pending[key] = _PendingConfigure(window)
        else:
            item.count += 1

    def note_property(self, window: Window, atom: int, state: int) -> None:
        key = ("property", window.id, atom)
        item = self._pending.get(key)
        if item is None:
            self._pending[key] = _PendingProperty(window, atom, state)
        else:
            item.state = state
            item.count += 1

    def flush(self, server: "XServer") -> None:
        """Synthesise every pending notification (first-touch order)
        and clear the window.  Safe to call repeatedly; a window a
        fault destroyed mid-batch is skipped (its DestroyNotify already
        told the story)."""
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        stats = server._stats
        for item in pending.values():
            stats.inc("batch_coalesced", n=item.count - 1)
            window = item.window
            if window.destroyed:
                continue
            if isinstance(item, _PendingConfigure):
                server._emit_configure_notify(window)
                grew = (
                    window.width > item.width0
                    or window.height > item.height0
                )
                if grew and window.viewable:
                    server._send_exposures(window)
            else:
                server._deliver(
                    window,
                    ev.PropertyNotify(
                        window=window.id, atom=item.atom, state=item.state
                    ),
                    EventMask.PropertyChange,
                )
        server._settle_pointer()
