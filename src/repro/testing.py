"""A user-simulation driver for scripting interactions.

:class:`Robot` plays the user against a running server + swm: it finds
decoration objects by name, clicks buttons, drags titlebars, picks menu
items, and answers selection prompts — the plumbing every interactive
test needs, packaged once.

    robot = Robot(server, wm)
    robot.click_object(managed, "name")           # raise via binding
    robot.drag_object(managed, "name", 50, 30, button=2)
    robot.pick_menu_item("Iconify")
    robot.answer_prompt(managed)                  # question-mark prompt
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .xserver.geometry import Point

if TYPE_CHECKING:  # pragma: no cover
    from .core.managed import ManagedWindow
    from .core.wm import Swm
    from .xserver.server import XServer


class RobotError(RuntimeError):
    """The requested interaction is impossible (object missing...)."""


class Robot:
    """Drives pointer/keyboard input against a WM under test."""

    def __init__(self, server: "XServer", wm: "Swm"):
        self.server = server
        self.wm = wm

    # -- locating things ---------------------------------------------------

    def object_origin(self, managed: "ManagedWindow", name: str) -> Point:
        """Root coordinates of a decoration (or icon) object."""
        obj = managed.object_named(name)
        if obj is None and managed.icon is not None:
            obj = managed.icon.panel.find(name)
        if obj is None or obj.window is None:
            raise RobotError(f"no realized object {name!r} on {managed!r}")
        return self.server.window(obj.window).position_in_root()

    # -- primitive gestures ---------------------------------------------------

    def move_pointer(self, x: int, y: int) -> None:
        self.server.motion(x, y)
        self.wm.process_pending()

    def click(self, x: int, y: int, button: int = 1) -> None:
        self.server.motion(x, y)
        self.server.button_press(button)
        self.server.button_release(button)
        self.wm.process_pending()

    def drag(
        self,
        start: Tuple[int, int],
        end: Tuple[int, int],
        button: int = 1,
        steps: int = 3,
    ) -> None:
        """Press at *start*, move through interpolated points, release
        at *end*."""
        self.server.motion(*start)
        self.server.button_press(button)
        self.wm.process_pending()
        for step in range(1, steps + 1):
            x = start[0] + (end[0] - start[0]) * step // steps
            y = start[1] + (end[1] - start[1]) * step // steps
            self.server.motion(x, y)
            self.wm.process_pending()
        self.server.button_release(button)
        self.wm.process_pending()

    def type_key(self, keysym: str) -> None:
        self.server.key_press(keysym)
        self.server.key_release(keysym)
        self.wm.process_pending()

    # -- object-level gestures ----------------------------------------------------

    def click_object(
        self, managed: "ManagedWindow", name: str, button: int = 1
    ) -> None:
        """Click a named decoration/icon object."""
        origin = self.object_origin(managed, name)
        self.click(origin.x + 2, origin.y + 2, button)

    def drag_object(
        self,
        managed: "ManagedWindow",
        name: str,
        dx: int,
        dy: int,
        button: int = 1,
    ) -> None:
        """Press on a named object and drag by (dx, dy)."""
        origin = self.object_origin(managed, name)
        start = (origin.x + 2, origin.y + 2)
        self.drag(start, (start[0] + dx, start[1] + dy), button)

    # -- WM dialogs --------------------------------------------------------------------

    def pick_menu_item(self, label: str) -> None:
        """Click an item in the currently open menu."""
        if self.wm.active_menu is None:
            raise RobotError("no menu is open")
        menu, _, _ = self.wm.active_menu
        labels = [item.label for item in menu.items]
        try:
            index = labels.index(label)
        except ValueError:
            raise RobotError(
                f"menu has no item {label!r} (has {labels})"
            ) from None
        item_window = menu.item_windows[index]
        origin = self.server.window(item_window).position_in_root()
        self.click(origin.x + 2, origin.y + 2)

    def answer_prompt(self, managed: Optional["ManagedWindow"]) -> None:
        """Complete a selection prompt by clicking the given window
        (or the root, ending the prompt, when None)."""
        if self.wm.selection is None:
            raise RobotError("no selection prompt is active")
        if managed is None:
            screen = self.server.screens[0]
            self.click(screen.width - 2, screen.height - 2)
            return
        rect = self.wm.frame_rect(managed)
        self.click(rect.x + 2, rect.y + rect.height // 2)

    def in_panner_click(self, x: int, y: int, button: int = 1) -> None:
        """Click at panner-local coordinates."""
        panner = self.wm.screens[0].panner
        if panner is None:
            raise RobotError("no panner on screen 0")
        origin = self.server.window(panner.window).position_in_root()
        self.click(origin.x + x, origin.y + y, button)


# ----------------------------------------------------------------------
# WM ↔ server consistency checking (chaos-test oracle)
# ----------------------------------------------------------------------

def _alive(server: "XServer", wid: int) -> bool:
    win = server.windows.get(wid)
    return win is not None and not win.destroyed


def wm_consistency_problems(wm: "Swm") -> List[str]:
    """Cross-check the WM's bookkeeping against the server's window
    tree and return a list of human-readable violations.

    Reads server structures directly — no protocol requests are made,
    so checking never perturbs fault-injection state.  An empty list
    means the managed table, the frame table, the auxiliary window
    tables, and the actual window tree all agree.
    """
    from .icccm.hints import ICONIC_STATE, NORMAL_STATE

    server = wm.server
    problems: List[str] = []

    allowed_parents = set()
    for sc in wm.screens:
        allowed_parents.add(sc.root)
        for vdesk in sc.vdesks:
            allowed_parents.add(vdesk.window)

    # managed ↔ frames bijection, and both windows actually alive.
    for client, managed in wm.managed.items():
        if client != managed.client:
            problems.append(
                f"managed[{client:#x}] records client {managed.client:#x}"
            )
        if wm.frames.get(managed.frame) is not managed:
            problems.append(
                f"frame {managed.frame:#x} of client {client:#x}"
                " missing from frames table"
            )
        if not _alive(server, client):
            problems.append(f"managed client {client:#x} is destroyed")
            continue
        if not _alive(server, managed.frame):
            problems.append(
                f"frame {managed.frame:#x} of client {client:#x} is destroyed"
            )
            continue
        frame_win = server.windows[managed.frame]
        client_win = server.windows[client]
        if not frame_win.is_ancestor_of(client_win):
            problems.append(
                f"client {client:#x} is not inside its frame"
                f" {managed.frame:#x}"
            )
        parent = frame_win.parent
        if parent is not None and parent.id not in allowed_parents:
            problems.append(
                f"frame {managed.frame:#x} parented to stray window"
                f" {parent.id:#x}"
            )
        if managed.state == ICONIC_STATE:
            if managed.icon is None:
                problems.append(f"iconic client {client:#x} has no icon")
            elif not _alive(server, managed.icon.window):
                problems.append(
                    f"iconic client {client:#x} has a destroyed icon window"
                    f" {managed.icon.window:#x}"
                )
            if frame_win.mapped:
                problems.append(
                    f"iconic client {client:#x} still has a mapped frame"
                )
        elif managed.state == NORMAL_STATE and not frame_win.mapped:
            problems.append(
                f"normal-state client {client:#x} has an unmapped frame"
            )
        problems.extend(_model_problems(server, managed, frame_win, client_win))

    for frame, managed in wm.frames.items():
        if wm.managed.get(managed.client) is not managed:
            problems.append(
                f"frames[{frame:#x}] points at unmanaged client"
                f" {managed.client:#x}"
            )
        if frame != managed.frame:
            problems.append(
                f"frames[{frame:#x}] records frame {managed.frame:#x}"
            )

    # Auxiliary tables must only reference live windows (the reaper's
    # contract after any fault sequence).
    for wid in wm.object_windows:
        if not _alive(server, wid):
            problems.append(f"object_windows holds dead window {wid:#x}")
    for wid, owner in wm.corner_windows.items():
        if not _alive(server, wid):
            problems.append(f"corner_windows holds dead window {wid:#x}")
        if wm.managed.get(owner.client) is not owner:
            problems.append(
                f"corner window {wid:#x} owned by unmanaged client"
                f" {owner.client:#x}"
            )
    for wid, icon in wm.icon_windows.items():
        if not _alive(server, wid):
            problems.append(f"icon_windows holds dead window {wid:#x}")
        if icon.managed is not None and (
            wm.managed.get(icon.managed.client) is not icon.managed
        ):
            problems.append(
                f"icon window {wid:#x} tied to unmanaged client"
                f" {icon.managed.client:#x}"
            )

    return problems


def _model_problems(server, managed, frame_win, client_win) -> List[str]:
    """Where *managed*'s window model (frame rect, client size, and
    the WM_COMMAND / WM_CLIENT_MACHINE strings the checkpoint saves)
    differs from what the server holds."""
    from .icccm.properties import command_string

    problems = []
    client = managed.client
    frame = frame_win.rect
    if managed.frame_rect != frame:
        problems.append(
            f"client {client:#x} model frame rect {managed.frame_rect}"
            f" != server {frame}"
        )
    size = (client_win.rect.width, client_win.rect.height)
    if tuple(managed.client_size) != size:
        problems.append(
            f"client {client:#x} model size {tuple(managed.client_size)}"
            f" != server {size}"
        )
    for name, modelled, decode in (
        ("WM_COMMAND", managed.command, command_string),
        ("WM_CLIENT_MACHINE", managed.machine, _string),
    ):
        atom = server.atoms.intern(name, only_if_exists=True)
        prop = client_win.properties.get(atom) if atom else None
        actual = decode(prop) if prop is not None else None
        if modelled != actual:
            problems.append(
                f"client {client:#x} model {name} {modelled!r}"
                f" != server {actual!r}"
            )
    return problems


def _string(prop) -> Optional[str]:
    """A STRING property as ``ClientConnection.get_string_property``
    reads it."""
    return prop.as_string().rstrip("\0") if prop.format == 8 else None


def assert_wm_consistent(wm: "Swm") -> None:
    """Raise AssertionError listing every consistency violation."""
    problems = wm_consistency_problems(wm)
    if problems:
        raise AssertionError(
            "WM state inconsistent:\n  " + "\n  ".join(problems)
        )


# ----------------------------------------------------------------------
# Cold-start adoption oracle (crash-restart chaos tests)
# ----------------------------------------------------------------------

def adoption_problems(wm: "Swm", expected: Sequence[int]) -> List[str]:
    """Check that a restarted WM fully absorbed its predecessor's
    estate.  *expected* is the set of client windows that were managed
    before the crash.  Violations:

    - an expected client that is still alive on the server but is not
      in the new WM's managed table (a lost client);
    - any live window still owned by a dead connection (an unreclaimed
      husk — the old WM's frames and icons must all be destroyed or
      re-owned by adoption).

    Like :func:`wm_consistency_problems`, this reads server structures
    directly and never issues protocol requests, so it cannot perturb
    fault-injection state.
    """
    server = wm.server
    problems: List[str] = []

    for client in expected:
        if not _alive(server, client):
            continue  # genuinely destroyed; nothing to adopt
        if client not in wm.managed:
            problems.append(
                f"pre-crash client {client:#x} is alive but unmanaged"
            )

    for wid, win in server.windows.items():
        if win.destroyed:
            continue
        if win.owner is not None and win.owner not in server.clients:
            problems.append(
                f"window {wid:#x} still owned by dead client"
                f" {win.owner}"
            )

    stats = wm.session.adoption
    if stats is not None and stats.total_recovered() < 0:
        problems.append("adoption stats went negative")

    return problems


def assert_adoption_complete(wm: "Swm", expected: Sequence[int]) -> None:
    """Raise AssertionError listing every adoption violation."""
    problems = adoption_problems(wm, expected)
    if problems:
        raise AssertionError(
            "adoption incomplete:\n  " + "\n  ".join(problems)
        )


# ----------------------------------------------------------------------
# Containment oracle (quota/backpressure chaos + fuzz tests)
# ----------------------------------------------------------------------

def quota_problems(server: "XServer") -> List[str]:
    """Cross-check the quota manager's ledgers against live server
    state and the configured limits.  Violations:

    - recorded per-client window counts that disagree with a recount
      of live windows, or exceed ``max_windows``;
    - property-byte charges that disagree with the per-client totals,
      reference dead windows or deleted properties, or exceed
      ``max_property_bytes``;
    - registered passive grabs beyond ``max_pending_grabs``;
    - any client queue past the hard cap (backpressure failed);
    - throttle records for clients that no longer exist.

    Like the other oracles this reads server structures directly and
    never issues protocol requests, so checking perturbs nothing.
    """
    from collections import Counter

    quotas = server.quotas
    limits = quotas.limits
    problems: List[str] = []

    # Window counts: ledger == recount, and within quota for live clients.
    actual: Counter = Counter()
    for win in server.windows.values():
        if not win.destroyed and win.owner is not None:
            actual[win.owner] += 1
    for cid in set(actual) | set(quotas.windows):
        recorded = quotas.windows.get(cid, 0)
        counted = actual.get(cid, 0)
        if recorded < 0:
            problems.append(f"negative window count for client {cid}")
        if cid in server.clients and recorded != counted:
            problems.append(
                f"client {cid} window ledger {recorded} != live {counted}"
            )
        if (
            limits.max_windows is not None
            and cid in server.clients
            and counted > limits.max_windows
        ):
            problems.append(
                f"client {cid} holds {counted} windows"
                f" > quota {limits.max_windows}"
            )

    # Property bytes: per-(window, atom) charges must sum to the
    # per-client totals and reference live properties.
    per_client: Counter = Counter()
    for wid, charges in quotas.property_ledger().items():
        win = server.windows.get(wid)
        for atom, (cid, nbytes) in charges.items():
            per_client[cid] += nbytes
            if nbytes < 0:
                problems.append(
                    f"negative property charge on {wid:#x} atom {atom}"
                )
            if win is None or win.destroyed:
                problems.append(
                    f"property charge on dead window {wid:#x}"
                )
            elif win.properties.get(atom) is None:
                problems.append(
                    f"charge for deleted property {atom} on {wid:#x}"
                )
    for cid in set(per_client) | set(quotas.prop_bytes):
        if cid not in server.clients:
            continue  # refunds for the dead are lazy; skip
        ledger = quotas.prop_bytes.get(cid, 0)
        summed = per_client.get(cid, 0)
        if ledger != summed:
            problems.append(
                f"client {cid} property-byte ledger {ledger}"
                f" != charge sum {summed}"
            )
        if (limits.max_property_bytes is not None
                and ledger > limits.max_property_bytes):
            problems.append(
                f"client {cid} holds {ledger} property bytes"
                f" > quota {limits.max_property_bytes}"
            )

    # Grabs: recount from the live table.
    if limits.max_pending_grabs is not None:
        for cid in server.clients:
            count = server.grabs.count_for_client(cid)
            if count > limits.max_pending_grabs:
                problems.append(
                    f"client {cid} holds {count} grabs"
                    f" > quota {limits.max_pending_grabs}"
                )

    # Queues bounded by the backpressure hard cap.
    for cid, sink in server.clients.items():
        queue = getattr(sink, "_queue", None)
        if queue is not None and len(queue) > limits.hard_cap:
            problems.append(
                f"client {cid} queue {len(queue)}"
                f" > hard cap {limits.hard_cap}"
            )

    for cid in quotas.throttled_clients():
        if cid not in server.clients:
            problems.append(f"throttle record for dead client {cid}")

    return problems


def assert_quotas_enforced(server: "XServer") -> None:
    """Raise AssertionError listing every containment violation."""
    problems = quota_problems(server)
    if problems:
        raise AssertionError(
            "quota state inconsistent:\n  " + "\n  ".join(problems)
        )
