"""Subsystem controllers: the swm monolith, decomposed.

The paper's thesis is *mechanism, not policy* — swm assembles behaviour
from small cooperating objects.  The window manager itself follows the
same shape: :class:`~repro.core.wm.Swm` is a thin facade over subsystem
controllers, each owning one slice of window-manager behaviour:

- :class:`~repro.core.subsystems.desktop.DesktopController` — the
  Virtual Desktop: panning, desktops, panner, scrollbars, sticky
  windows (§6),
- :class:`~repro.core.subsystems.decor.DecorController` — decoration
  layout, resize corners, SHAPE frames, dynamic object changes (§4),
- :class:`~repro.core.subsystems.iconify.IconifyController` — icons,
  icon holders, root icons, (de)iconification,
- :class:`~repro.core.subsystems.focus.FocusController` — input focus
  and client shutdown protocols (ICCCM),
- :class:`~repro.core.subsystems.restart.RestartController` — session
  save/restore and WM lifecycle (§7),
- :class:`~repro.core.subsystems.input.InputController` — bindings
  dispatch, interactive move/resize, menus, window selection (§5).

Controllers contribute event handlers declaratively: each returns
``(event class, priority, handler)`` triples from
:meth:`Subsystem.event_handlers`, and the facade dispatches through the
resulting table — new subsystems register handlers instead of editing
an event loop.  A handler returns truthy to consume the event and stop
the chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..wm import Swm

#: Handler priorities: lower runs first.  Overlay handlers (an active
#: drag, selection prompt, or menu) intercept before per-subsystem
#: window handlers, which intercept before generic bindings dispatch.
PRI_OVERLAY = 0
PRI_SUBSYSTEM = 50
PRI_BINDINGS = 100


class Subsystem:
    """Base class for subsystem controllers.

    A controller holds a back-reference to the facade; shared state
    (the managed/frames/object-window tables, screen contexts) lives on
    the facade so the public API and the controllers see one truth.
    """

    name = "subsystem"

    def __init__(self, wm: "Swm"):
        self.wm = wm

    @property
    def conn(self):
        return self.wm.conn

    @property
    def server(self):
        return self.wm.server

    def guarded(self, fn, *args, **kwargs):
        """Run an X call that may race a dying client; see
        :meth:`Swm.guarded` — the error is counted in
        ``server.stats()`` and ``default`` is returned instead."""
        return self.wm.guarded(fn, *args, **kwargs)

    def event_handlers(self) -> Iterable[Tuple[type, int, object]]:
        """``(event class, priority, handler)`` triples to install."""
        return ()


from .decor import DecorController  # noqa: E402
from .desktop import DesktopController  # noqa: E402
from .focus import FocusController  # noqa: E402
from .iconify import IconifyController  # noqa: E402
from .input import InputController  # noqa: E402
from .requests import RedirectController  # noqa: E402
from .restart import RestartController  # noqa: E402

__all__ = [
    "DecorController",
    "DesktopController",
    "FocusController",
    "IconifyController",
    "InputController",
    "RedirectController",
    "RestartController",
    "PRI_BINDINGS",
    "PRI_OVERLAY",
    "PRI_SUBSYSTEM",
    "Subsystem",
]
