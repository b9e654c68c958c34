"""A supervised restart loop for the window manager.

The paper assumes swm never dies; real sessions run for months (the
VEPP-5 control room kept X up across operator generations) and the WM
*does* die.  :class:`Supervisor` closes the loop:

* it boots the WM through a caller-supplied factory, first replaying
  the newest valid checkpoint from a :class:`~repro.session.store.
  SessionStore` onto the root as swmhints records, so the fresh WM's
  restart table reconciles adopted windows against saved geometry;
* WM work runs through :meth:`run` / :meth:`pump`; a :class:`WMCrash`
  escaping the WM (injected via the ``crash`` fault family, or any
  real defect that reaches a request) is caught, the corpse is cleaned
  off the server, and the WM is restarted after a bounded exponential
  backoff;
* a **crash-storm circuit breaker** counts crashes inside a sliding
  timestamp window; past the threshold the supervisor stops restarting
  and raises :class:`CrashStorm` — restart loops must be bounded or
  they become the outage.

Corpse cleanup has two modes, matching the two ways a real server can
treat a dead connection: ``"close"`` runs the full disconnect path
(frames destroyed, save-set clients rescued onto the root — ICCCM
§4.1.3.1), while ``"abandon"`` leaves every window of the dead WM in
place (RetainPermanent semantics), handing the successor a tree full
of zombie frames to adopt.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, TYPE_CHECKING

from ..xserver import trace as trace_mod
from ..xserver.client import ClientConnection
from ..xserver.faults import WMCrash
from ..xserver.wire.resilience import backoff
from .hints import clear_restart_property, swmhints
from .places import parse_places
from .store import SessionStore

if TYPE_CHECKING:  # pragma: no cover
    from ..core.wm import Swm
    from ..xserver.server import XServer

logger = logging.getLogger("repro.swm")


class CrashStorm(RuntimeError):
    """The WM crashed too often too fast; the breaker is open."""


@dataclass
class CrashRecord:
    """One observed crash and the recovery that followed."""

    timestamp: int
    crash_point: str
    backoff: int
    cleanup: str
    during_boot: bool = False


class Supervisor:
    """Runs the WM, survives its crashes, restores its session."""

    def __init__(
        self,
        server: "XServer",
        store: Optional[SessionStore],
        wm_factory: Callable[["XServer", Optional[SessionStore]], "Swm"],
        *,
        backoff_base: int = 8,
        backoff_cap: int = 256,
        storm_threshold: int = 6,
        storm_window: int = 2000,
        cleanup: str = "close",
        flight_dir: Optional[str] = None,
        flight_seed: Optional[int] = None,
        flight_tag: str = "",
    ):
        if cleanup not in ("close", "abandon"):
            raise ValueError(f"unknown cleanup mode {cleanup!r}")
        self.server = server
        self.store = store
        self.wm_factory = wm_factory
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.storm_threshold = storm_threshold
        self.storm_window = storm_window
        #: How a dead WM's connection is torn down: "close" (save-set
        #: rescue) or "abandon" (zombie frames left for adoption).
        self.cleanup = cleanup
        self.wm: Optional["Swm"] = None
        self.crashes: List[CrashRecord] = []
        self.restarts = 0
        self.tripped = False
        self._consecutive = 0
        #: Where flight-recorder dumps land (defaults to SWM_FLIGHT_DIR);
        #: dumps happen only while the server's tracer is enabled.
        self.flight_dir = (
            flight_dir if flight_dir is not None else trace_mod.flight_dir()
        )
        #: Replay seed stamped into every dump (soak runs set this).
        self.flight_seed = flight_seed
        #: Label woven into dump filenames and payloads; a display
        #: router sets it per shard so a multi-shard incident's
        #: artifacts sort by which screen they came from.
        self.flight_tag = flight_tag
        #: Paths of the flight dumps written so far.
        self.flight_dumps: List[str] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Swm":
        """Boot the WM (restoring the checkpoint first), retrying with
        backoff if it crashes during startup."""
        while True:
            try:
                return self._boot()
            except WMCrash as crash:
                self._recover_from(crash, during_boot=True)

    def _boot(self) -> "Swm":
        self._restore_checkpoint()
        before = set(self.server.clients)
        try:
            self.wm = self.wm_factory(self.server, self.store)
        except WMCrash:
            # The WM died mid-startup (possibly mid-adoption).  Its
            # half-built connection is a fresh corpse: clean it up so
            # the retry does not trip over its selections.
            self.wm = None
            for client_id in set(self.server.clients) - before:
                self._cleanup_client(client_id)
            raise
        self.restarts += 1
        return self.wm

    def _restore_checkpoint(self) -> None:
        """Replay the newest valid checkpoint as swmhints records on
        the root, replacing whatever stale records the dead WM left.
        The booting WM reads them into its restart table and uses them
        to reconcile adopted windows (geometry/sticky/desktop)."""
        if self.store is None:
            return
        checkpoint = self.store.load()
        conn = ClientConnection(self.server, "swm-supervisor")
        try:
            root = conn.root_window(0)
            clear_restart_property(conn, root)
            if checkpoint is None:
                return
            for entry in parse_places(checkpoint.text):
                swmhints(conn, entry.hints.to_argv())
        finally:
            conn.close()

    # -- supervised execution ----------------------------------------------

    def run(self, fn: Callable, *args, default=None, **kwargs):
        """Run one step of WM work under supervision.  On a crash the
        corpse is cleaned up, the WM restarted from the checkpoint, and
        *default* returned — callers see a blip, not an exception."""
        if self.tripped:
            raise CrashStorm("supervisor breaker is open")
        try:
            result = fn(*args, **kwargs)
        except WMCrash as crash:
            self._recover_from(crash, during_boot=False)
            self._restart()
            return default
        # A completed step means the service is healthy again; the
        # next crash starts the backoff ladder from the bottom.
        self._consecutive = 0
        return result

    def pump(self):
        """process_pending under supervision."""
        if self.wm is None:
            raise RuntimeError("supervisor has no WM (call start() first)")
        return self.run(self.wm.process_pending)

    def _restart(self) -> None:
        while True:
            try:
                self._boot()
                return
            except WMCrash as crash:
                self._recover_from(crash, during_boot=True)

    # -- crash handling ----------------------------------------------------

    def _recover_from(self, crash: WMCrash, during_boot: bool) -> None:
        """Record the crash, trip the breaker if this is a storm,
        clean up the corpse, and wait out the backoff."""
        now = self.server.timestamp
        recent = [
            c for c in self.crashes
            if now - c.timestamp <= self.storm_window
        ]
        if len(recent) + 1 > self.storm_threshold:
            self.tripped = True
            self.crashes.append(
                CrashRecord(now, crash.crash_point, 0, self.cleanup,
                            during_boot)
            )
            self._dump_flight(crash, during_boot, storm=True)
            logger.error(
                "crash storm: %d crashes within %d ticks; not restarting",
                len(recent) + 1, self.storm_window,
            )
            raise CrashStorm(
                f"{len(recent) + 1} crashes within {self.storm_window}"
                " timestamp ticks"
            ) from crash
        wait = backoff(self._consecutive, self.backoff_base, self.backoff_cap)
        self._consecutive += 1
        self.crashes.append(
            CrashRecord(now, crash.crash_point, wait, self.cleanup,
                        during_boot)
        )
        # Dump the flight recorder *before* corpse cleanup: the ring
        # must end at the crashing request's span, not at the teardown
        # traffic that follows it.
        self._dump_flight(crash, during_boot, storm=False)
        logger.warning(
            "wm crashed at %s (%s); restarting in %d ticks",
            crash.crash_point, "boot" if during_boot else "run", wait,
        )
        dead = self.wm
        self.wm = None
        if dead is not None:
            dead.running = False
            self._cleanup_client(dead.conn.client_id)
        # Simulated wall-clock wait: the backoff burns timestamp ticks,
        # which is also what the storm window is measured in.
        self.server.timestamp += wait

    def _dump_flight(
        self, crash: WMCrash, during_boot: bool, storm: bool
    ) -> Optional[str]:
        """Write the server tracer's flight recorder to a JSON artifact
        (one per crash).  No-op unless a dump directory is configured
        and the tracer is enabled."""
        tracer = getattr(self.server, "tracer", None)
        if self.flight_dir is None or tracer is None or not tracer.enabled:
            return None
        reason = "CrashStorm" if storm else "WMCrash"
        tag = f"{self.flight_tag}-" if self.flight_tag else ""
        path = os.path.join(
            self.flight_dir, f"flight-{tag}crash-{len(self.crashes):03d}.json"
        )
        extra = {
            "during_boot": during_boot,
            "restarts": self.restarts,
            "crashes": len(self.crashes),
            "timestamp": self.server.timestamp,
        }
        if self.flight_tag:
            extra["shard"] = self.flight_tag
        tracer.dump(
            path,
            reason=f"{reason}:{crash.crash_point}",
            seed=self.flight_seed,
            extra=extra,
        )
        self.flight_dumps.append(path)
        return path

    def _cleanup_client(self, client_id: int) -> None:
        if self.cleanup == "abandon":
            self.server.abandon_client(client_id)
        else:
            self.server.close_client(client_id)


__all__ = ["CrashRecord", "CrashStorm", "Supervisor"]
