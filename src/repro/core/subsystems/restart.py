"""Session / WM-lifecycle controller (§7).

Owns the swmhints restart table (read from the SWM_RESTART_INFO root
property before adopting clients), the matching of new clients against
restart records, f.places script generation, the debounced checkpoint
autosave (which formats again only the clients whose restart inputs
changed since the last checkpoint), cold-start adoption of a dead
predecessor's leftovers, and the f.quit/f.restart lifecycle
transitions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ... import icccm
from ...icccm.hints import ICONIC_STATE, WITHDRAWN_STATE
from . import Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from ...session.places import RestartInputs
    from ...xserver.window import Window
    from ..wm import ScreenContext

#: Root property carrying swmhints session-restart records (§7).
RESTART_PROPERTY = "SWM_RESTART_INFO"

logger = logging.getLogger("repro.swm")


@dataclass
class AdoptionStats:
    """What the cold-start adoption pass found and did.

    ``adopted``
        Clients extracted from a dead predecessor's zombie frames.
    ``rescued``
        WM_STATE-bearing top-levels found back on the root (the
        save-set rescue of ICCCM §4.1.3.1 put them there).
    ``inherited``
        Plain pre-existing mapped windows managed the ordinary way.
    ``reclaimed``
        Dead-owner subtrees (frames, icons, virtual desktops)
        demolished after extraction.
    """

    adopted: int = 0
    rescued: int = 0
    inherited: int = 0
    reclaimed: int = 0

    def total_recovered(self) -> int:
        return self.adopted + self.rescued + self.inherited


class RestartController(Subsystem):
    """Session save/restore and WM lifecycle."""

    name = "restart"

    #: Housekeeping ticks between the first unsaved change and the
    #: checkpoint that captures it.  The deadline is set when the store
    #: *becomes* dirty and does not move under further churn, so a
    #: checkpoint exists within this many pumps of any change.
    AUTOSAVE_DEBOUNCE = 4

    def __init__(self, wm):
        super().__init__(wm)
        #: Parsed swmhints records not yet claimed by a client.
        self.restart_table: List[dict] = []
        #: Results of the last cold-start adoption pass, if any.
        self.adoption: Optional[AdoptionStats] = None
        self.autosaves = 0
        self.autosave_failures = 0
        self._dirty = False
        self._tick = 0
        self._save_due = 0
        #: The last checkpoint's entries: client -> ((the remoteStart
        #: template, its restart inputs), its two f.places lines).
        self._entries: Dict[
            int, Tuple[Tuple[str, "RestartInputs"], Tuple[str, str]]
        ] = {}
        #: The text of the last checkpoint this controller wrote.
        self._saved_text: Optional[str] = None

    def load_restart_table(self, root: int) -> None:
        """Read swmhints restart records before adopting clients (§7)."""
        from ...session.hints import read_restart_property

        self.restart_table = read_restart_property(self.conn, root)

    def absorb_restart_records(self, records, durable: bool = True) -> int:
        """Cross-shard adoption support: merge restart records handed
        over by a display router — captured from another shard's
        checkpoint or live snapshot — into the *running* WM's table.

        Boot-time :meth:`load_restart_table` replaces the table from
        the root property; this is the mid-flight counterpart a live
        migration/failover needs, so the very next ``manage()`` of the
        relaunched client replays its geometry/sticky/desktop state.
        With *durable* the records are also appended to the root
        property, so a WM crash between the handover and the client's
        arrival still leaves the successor able to reconcile it.

        *records* is an iterable of
        :class:`~repro.session.hints.RestartHints`.  Returns the number
        of records absorbed."""
        from ...session.hints import swmhints

        absorbed = 0
        for hints in records:
            self.restart_table.append(
                {
                    "command": hints.command,
                    "machine": hints.machine,
                    "geometry": hints.geometry,
                    "icon_position": hints.icon_position,
                    "state": hints.state,
                    "sticky": hints.sticky,
                    "desktop": hints.desktop,
                }
            )
            if durable:
                self.guarded(swmhints, self.conn, hints.to_argv())
            absorbed += 1
        if absorbed:
            self.mark_dirty()
        return absorbed

    def match_restart_entry(
        self, command: Optional[str], machine: Optional[str]
    ) -> Optional[dict]:
        """Find (and consume) a session-restart record whose WM_COMMAND
        — and, when present, WM_CLIENT_MACHINE — matches (§7)."""
        if command is None or not self.restart_table:
            return None
        for entry in self.restart_table:
            if entry["command"] != command:
                continue
            wanted = entry.get("machine")
            if wanted and machine and wanted != machine:
                continue
            self.restart_table.remove(entry)
            return entry
        return None

    def save_places(self) -> str:
        """f.places: write the restart script (§7).  When a session
        store is attached the same snapshot also becomes a durable
        checkpoint generation."""
        from ...session.places import write_places

        text = write_places(self.wm, self.wm.places_path)
        store = self.wm.session_store
        if store is not None:
            try:
                store.save(text)
                self._dirty = False
                self._saved_text = text
            except OSError as err:
                self.autosave_failures += 1
                logger.warning("session checkpoint failed: %s", err)
        return text

    # ------------------------------------------------------------------
    # Debounced checkpoint autosave
    # ------------------------------------------------------------------

    def mark_dirty(self) -> None:
        """Something a checkpoint records may have changed: schedule
        one.

        The deadline is pinned at the *first* change after a save —
        continuous churn cannot push it out, so the bounded-staleness
        guarantee holds even under a busy pointer."""
        if self.wm.session_store is None:
            return
        if not self._dirty:
            self._dirty = True
            self._save_due = self._tick + self.AUTOSAVE_DEBOUNCE

    def housekeeping_tick(self) -> None:
        """One event-pump housekeeping tick: autosave when due."""
        self._tick += 1
        if self._dirty and self._tick >= self._save_due:
            self.autosave()

    def autosave(self) -> bool:
        """Checkpoint the session now.  Uses only X *reads* plus disk
        I/O, so autosave traffic never consumes fault-plan draws or
        hits a crash point; a disk failure is counted, not fatal.

        A text equal to the last one this controller saved is already
        on disk: no generation is written, and the checkpoint counts as
        done."""
        store = self.wm.session_store
        if store is None:
            return False
        self._dirty = False
        text = self.checkpoint_text()
        if text == self._saved_text:
            return True
        try:
            store.save(text)
        except OSError as err:
            self.autosave_failures += 1
            logger.warning("session autosave failed: %s", err)
            return False
        self._saved_text = text
        self.autosaves += 1
        return True

    def checkpoint_text(self) -> str:
        """The f.places text of the session now.

        Equal to ``format_places(collect_entries(wm))``, the reference:
        every client's restart inputs are read again, and a client whose
        inputs and remoteStart template equal the last checkpoint's
        keeps the lines formatted then.  Only the clients of this
        checkpoint are kept, so an unmanaged client drops out."""
        from ...session import places

        template = places.remote_start_template(self.wm)
        memo, self._entries = self._entries, {}
        lines: List[str] = []
        for managed, inputs in places.client_inputs(self.wm):
            key = (template, inputs)
            hit = memo.get(managed.client)
            if hit is not None and hit[0] == key:
                entry_lines = hit[1]
            else:
                entry_lines = places.format_entry(inputs, template).lines()
            self._entries[managed.client] = (key, entry_lines)
            lines.extend(entry_lines)
        return places.places_script(lines)

    # ------------------------------------------------------------------
    # Cold-start adoption (ICCCM §4.1.3.1)
    # ------------------------------------------------------------------

    def adopt_existing(self) -> AdoptionStats:
        """Scan each root for windows a dead predecessor left behind
        and bring every survivor under management.

        Three cases per root child: a subtree whose owner connection is
        dead (a zombie frame, icon box or virtual desktop) has its live
        client windows *extracted and adopted* before the husk is
        destroyed; a live top-level bearing WM_STATE was save-set
        rescued onto the root and is *re-adopted* with its iconic state
        restored; any other mapped, non-override-redirect window is
        *inherited* the ordinary way.  Geometry, stickiness and desktop
        come back through the restart table the checkpoint replayed."""
        stats = AdoptionStats()
        self.adoption = stats
        for sc in self.wm.screens:
            tree = self.guarded(self.conn.query_tree, sc.root)
            if tree is None:
                continue
            for child in tree[2]:
                self._adopt_root_child(sc, child, stats)
        if stats.adopted or stats.rescued or stats.reclaimed:
            logger.info(
                "adoption: %d adopted, %d rescued, %d inherited,"
                " %d husks reclaimed",
                stats.adopted, stats.rescued, stats.inherited,
                stats.reclaimed,
            )
        return stats

    def _adopt_root_child(
        self, sc: "ScreenContext", child: int, stats: AdoptionStats
    ) -> None:
        wm = self.wm
        if child in wm.frames or child in wm.managed:
            return
        window = wm.server.windows.get(child)
        if window is None or window.destroyed:
            return
        if window.owner == self.conn.client_id:
            return
        if self._owner_is_dead(window):
            self._reclaim_orphan(sc, window, stats)
            return
        attrs = self.guarded(self.conn.get_window_attributes, child)
        if attrs is None or attrs["override_redirect"]:
            return
        state = self.guarded(icccm.get_wm_state, self.conn, child)
        if state is not None and state.state != WITHDRAWN_STATE:
            # WM_STATE marks a client some window manager was managing;
            # the save-set rescue landed it back on the root.
            self._readopt(child, state, stats, "rescued")
            return
        if attrs["map_state"] == 0:
            return
        if wm.manage(child) is not None:
            stats.inherited += 1

    def _owner_is_dead(self, window: "Window") -> bool:
        return (
            window.owner is not None
            and window.owner not in self.wm.server.clients
        )

    def _reclaim_orphan(
        self, sc: "ScreenContext", window: "Window", stats: AdoptionStats
    ) -> None:
        """A dead owner's root-level subtree: pull every live client
        window out (preserving its root position), then demolish the
        husk so no zombie frame outlives its WM."""
        strays: List["Window"] = []
        self._collect_strays(window, strays)
        for stray in strays:
            state = self.guarded(icccm.get_wm_state, self.conn, stray.id)
            origin = stray.position_in_root()
            self.guarded(
                self.conn.reparent_window,
                stray.id, sc.root, origin.x, origin.y,
                what="adopt",
            )
            if stray.override_redirect:
                continue  # popups: freed from the husk, never managed
            self._readopt(stray.id, state, stats, "adopted")
        if self.conn.window_exists(window.id):
            self.guarded(self.conn.destroy_window, window.id, what="adopt")
        stats.reclaimed += 1

    def _collect_strays(
        self, window: "Window", strays: List["Window"]
    ) -> None:
        """Live-owned windows inside a dead-owner subtree.  The walk
        stops at each live owner's boundary — a client's own subtree
        moves with it."""
        for child in list(window.children):
            if child.destroyed:
                continue
            owner = child.owner
            if (
                owner is not None
                and owner in self.wm.server.clients
                and owner != self.conn.client_id
            ):
                strays.append(child)
                continue
            self._collect_strays(child, strays)

    def _readopt(
        self,
        client: int,
        state,
        stats: AdoptionStats,
        how: str,
    ) -> None:
        managed = self.wm.manage(client)
        if managed is None:
            return
        setattr(stats, how, getattr(stats, how) + 1)
        if (
            state is not None
            and state.state == ICONIC_STATE
            and managed.state != ICONIC_STATE
        ):
            # The checkpoint may predate the iconify; WM_STATE on the
            # window itself is the fresher witness.
            self.wm.iconify(managed)

    # ------------------------------------------------------------------
    # WM lifecycle
    # ------------------------------------------------------------------

    def quit(self) -> None:
        """Shut down: release every client, then disconnect."""
        wm = self.wm
        logger.info(
            "swm shutting down (%d managed clients)",
            sum(1 for m in wm.managed.values() if not m.is_internal),
        )
        wm.running = False
        for managed in list(wm.managed.values()):
            if not managed.is_internal:
                wm.unmanage(managed)
        self.conn.close()

    def restart(self) -> None:
        """Re-read configuration and re-manage everything (f.restart)."""
        from ..wm import ScreenContext

        wm = self.wm
        logger.info("swm restarting")
        clients = [m.client for m in wm.managed.values() if not m.is_internal]
        for managed in list(wm.managed.values()):
            wm.unmanage(managed)
        for sc in wm.screens:
            for holder in sc.icon_holders:
                if self.conn.window_exists(holder.window):
                    self.guarded(self.conn.destroy_window, holder.window)
            for icon in sc.root_icons.values():
                if self.conn.window_exists(icon.window):
                    self.guarded(self.conn.destroy_window, icon.window)
            if sc.panner is not None and self.conn.window_exists(
                sc.panner.window
            ):
                self.guarded(self.conn.destroy_window, sc.panner.window)
            if sc.scrollbars is not None:
                for bar in (sc.scrollbars.vertical, sc.scrollbars.horizontal):
                    if self.conn.window_exists(bar):
                        self.guarded(self.conn.destroy_window, bar)
            for vdesk in sc.vdesks:
                if self.conn.window_exists(vdesk.window):
                    self.guarded(self.conn.destroy_window, vdesk.window)
        wm.object_windows.clear()
        wm.icon_windows.clear()
        wm.corner_windows.clear()
        wm.screens = []
        for number in range(len(wm.server.screens)):
            sc = ScreenContext(wm, number)
            wm.screens.append(sc)
            wm.desktop.setup_virtual_desktop(sc)
            wm.iconifier.setup_icon_holders(sc)
            wm._setup_root_panels(sc)
            wm.iconifier.setup_root_icons(sc)
            wm.desktop.setup_panner(sc)
            wm.desktop.setup_scrollbars(sc)
        # Re-manage survivors.  manage() is idempotent and aborts
        # cleanly on a client that died between snapshot and relaunch,
        # so one casualty never derails the rest of the restore.
        for client in clients:
            if self.conn.window_exists(client):
                # Replaying one survivor re-issues its whole configure
                # history (frame geometry, decoration layout, border
                # strip); batch each replay's mutations per window.
                with self.conn.batch() as results:
                    managed = wm.manage(client)
                if managed is not None and not all(
                    result["ok"] for result in results
                ):
                    wm._resync(managed)  # a batched configure failed
