"""Soak harness: hours-scale simulated traffic, checked by oracles.

The VEPP-5 control-room experience report (see PAPERS.md) is the
scenario this harness compresses: operator desktops run for months and
failures must be diagnosable after the fact.  A :class:`SoakRunner`
drives a supervised WM session through phases of mixed traffic —
benign clients, batch storms, hostile fuzzer clients, injected
:class:`~repro.xserver.faults.WMCrash` restarts, a link-chaos
phase that runs a client over the deterministic framed wire while a
seeded plan partitions/lags/corrupts the byte stream (the resilience
layer must heal every flap by RESUME), and a shard-chaos phase that
kills a whole display shard under a two-shard
:class:`~.router.DisplayRouter` (the router must evacuate every
routed client with zero window loss) — in **accelerated ticks**: every phase is request-count-driven, never wall-clock-driven,
so a (seed, profile) pair replays bit-identically and two runs of the
same seed produce the same trace-span sequence (the tracer's running
signature proves it; wall durations are excluded by construction).

At checkpoints the run asserts zero drift in the three standing
oracles (:func:`repro.testing.wm_consistency_problems`,
:func:`~repro.testing.adoption_problems`,
:func:`~repro.testing.quota_problems`); an oracle failure dumps the
flight recorder and raises :class:`SoakFailure`.  The result payload
(``BENCH_soak.json``, schema ``swm-soak/1``) records per-phase
throughput, request-latency p50/p95/p99, per-subsystem p99s, cache hit
rates and shed/throttle/quota counts — the perf trajectory CI
accumulates across runs.

Determinism contract per phase record: ``wall_s``,
``throughput_rps`` and every ``*_ns`` latency figure are wall-clock
measurements and vary run to run; every other field (request counts,
shed/throttle/denial counts, crash/restart counts, span counts and the
``signature``) is a pure function of (seed, profile).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.wm import Swm
from ..testing import (
    adoption_problems,
    quota_problems,
    wm_consistency_problems,
)
from ..xserver.client import ClientConnection
from ..xserver.errors import XError
from ..xserver.faults import (
    CORRUPT,
    CRASH,
    DUPLICATE,
    LAG,
    PARTITION,
    REORDER,
    SHARD_CRASH,
    ConnectionClosed,
    FaultPlan,
)
from ..xserver.fuzz import ProtocolFuzzer
from ..xserver.properties import PROP_MODE_REPLACE
from ..xserver.server import XServer
from ..xserver.shard import HEALTHY as SHARD_HEALTHY
from ..xserver.wire.resilience import (
    FramedHost,
    FramedTransport,
    ResilienceConfig,
)
from .router import DisplayRouter
from .store import SessionStore
from .supervisor import CrashStorm, Supervisor

#: Result schema version (documented in ARCHITECTURE.md).
SCHEMA = "swm-soak/1"

#: Windows a benign client keeps alive at most.
MAX_BENIGN_WINDOWS = 6

#: WM-request matches a crash phase skips before firing (lets the
#: phase's own traffic precede the crash in the flight recorder).
CRASH_ARM_AFTER = 40


class SoakFailure(AssertionError):
    """An oracle reported drift (or the run ended in a crash storm)."""


@dataclass
class PhaseSpec:
    """One phase of the soak: *kind* is ``benign`` / ``batch_storm`` /
    ``hostile`` / ``crash`` / ``mixed`` / ``link_chaos`` /
    ``shard_chaos``; *steps* is the request-count budget (never a
    wall-clock duration — determinism)."""

    name: str
    kind: str
    steps: int


@dataclass
class SoakProfile:
    """A named, fully count-based soak shape."""

    name: str
    phases: List[PhaseSpec]
    benign_clients: int = 3
    hostile_clients: int = 2
    checkpoint_every: int = 200
    pump_every: int = 10
    trace_capacity: int = 4096

    def total_steps(self) -> int:
        return sum(phase.steps for phase in self.phases)


PROFILES: Dict[str, SoakProfile] = {
    # Seconds-scale: unit tests and local smoke runs.
    "quick": SoakProfile(
        "quick",
        [
            PhaseSpec("warmup", "benign", 120),
            PhaseSpec("batch-storm", "batch_storm", 40),
            PhaseSpec("hostile", "hostile", 150),
            PhaseSpec("link-chaos", "link_chaos", 60),
            PhaseSpec("crash-restart", "crash", 80),
            PhaseSpec("shard-chaos", "shard_chaos", 80),
            PhaseSpec("mixed", "mixed", 150),
        ],
        checkpoint_every=60,
    ),
    # Minutes-scale: the CI soak job (time-boxed ~5 min).
    "ci": SoakProfile(
        "ci",
        [
            PhaseSpec("warmup", "benign", 6000),
            PhaseSpec("batch-storm", "batch_storm", 1800),
            PhaseSpec("hostile", "hostile", 8000),
            PhaseSpec("link-chaos", "link_chaos", 2000),
            PhaseSpec("crash-restart", "crash", 1200),
            PhaseSpec("shard-chaos", "shard_chaos", 600),
            PhaseSpec("mixed", "mixed", 8000),
            PhaseSpec("crash-late", "crash", 1200),
            PhaseSpec("steady-state", "mixed", 8000),
        ],
        benign_clients=4,
        hostile_clients=3,
        checkpoint_every=1000,
    ),
    # Hours-scale shape for nightly/manual runs.
    "long": SoakProfile(
        "long",
        [
            PhaseSpec("warmup", "benign", 20_000),
            PhaseSpec("batch-storm", "batch_storm", 6000),
            PhaseSpec("hostile", "hostile", 30_000),
            PhaseSpec("link-chaos", "link_chaos", 6000),
            PhaseSpec("crash-restart", "crash", 4000),
            PhaseSpec("shard-chaos", "shard_chaos", 2000),
            PhaseSpec("mixed", "mixed", 30_000),
            PhaseSpec("crash-late", "crash", 4000),
            PhaseSpec("steady-state", "mixed", 30_000),
        ],
        benign_clients=6,
        hostile_clients=4,
        checkpoint_every=2000,
        trace_capacity=8192,
    ),
}


def derive_seed(base: int, token: str) -> int:
    """Knuth multiplicative hash + token hash, like the chaos suite's
    seed derivation: sub-streams decorrelate but stay replayable."""
    import zlib

    return (base * 2654435761 + zlib.crc32(token.encode())) % 2**31


@dataclass
class _BenignClient:
    conn: ClientConnection
    windows: List[int] = field(default_factory=list)
    atom_soak: int = 0
    atom_string: int = 0


class SoakRunner:
    """One deterministic soak run (see module docstring).

    ``run()`` returns the ``swm-soak/1`` result payload (also stored on
    ``self.result``); ``write(path)`` exports it.  Oracle drift raises
    :class:`SoakFailure` *after* dumping the flight recorder and
    stamping the partial payload, so a red run still ships artifacts.
    """

    def __init__(
        self,
        seed: int,
        profile: str = "quick",
        *,
        store_dir: Optional[str] = None,
        dump_dir: Optional[str] = None,
        trace: bool = True,
    ) -> None:
        try:
            self.profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown soak profile {profile!r}"
                f" (have: {', '.join(sorted(PROFILES))})"
            ) from None
        self.seed = seed
        self.rng = random.Random(derive_seed(seed, "soak-workload"))
        self.dump_dir = dump_dir
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="swm-soak-")
            store_dir = self._tmpdir.name
        self.store_dir = store_dir

        self.server = XServer()
        self.tracing = trace
        if trace:
            self.server.tracer.enable(self.profile.trace_capacity)
        self.store = SessionStore(os.path.join(store_dir, "checkpoints"))
        places = os.path.join(store_dir, "swm.places")

        def factory(server: XServer, store: Optional[SessionStore]) -> Swm:
            return Swm(server, places_path=places, session_store=store)

        # "abandon" cleanup hands every successor a zombie estate to
        # adopt — the cold-start shape the adoption oracle exists for.
        self.supervisor = Supervisor(
            self.server,
            self.store,
            factory,
            cleanup="abandon",
            backoff_base=2,
            backoff_cap=16,
            storm_threshold=20,
            storm_window=5000,
            flight_dir=dump_dir,
            flight_seed=seed,
        )
        self.supervisor.start()
        self.supervisor.pump()

        self.benign: List[_BenignClient] = []
        for index in range(self.profile.benign_clients):
            conn = ClientConnection(self.server, f"soak-benign-{index}")
            client = _BenignClient(
                conn,
                atom_soak=conn.intern_atom("SWM_SOAK"),
                atom_string=conn.intern_atom("STRING"),
            )
            self.benign.append(client)
        self.fuzzer = ProtocolFuzzer(
            self.server,
            derive_seed(seed, "soak-fuzz"),
            clients=self.profile.hostile_clients,
            name="soak-hostile",
        )
        self.supervisor.pump()

        self.denials = 0
        self.oracle_checks = 0
        #: Live top-levels owned by the link-chaos framed client; the
        #: adoption oracle holds the WM to these too while the phase
        #: runs (windows must survive link flaps, not just WM crashes).
        self._link_windows: List[int] = []
        self.result: Optional[dict] = None

    # -- workload steps ----------------------------------------------------

    def _root(self) -> int:
        return self.server.screens[0].root.id

    def _sup_run(self, fn: Callable, *args) -> None:
        """One supervised action: WMCrash recovers + restarts, protocol
        pushback is counted as a denial (the traffic goes on)."""
        try:
            self.supervisor.run(fn, *args)
        except (XError, ConnectionClosed):
            self.denials += 1

    def _benign_step(self) -> None:
        client = self.rng.choice(self.benign)
        conn, rng = client.conn, self.rng
        action = rng.choice(
            ("create", "move", "resize", "restack", "property", "warp",
             "query")
        )
        windows = [w for w in client.windows if conn.window_exists(w)]
        client.windows[:] = windows
        if action == "create" or not windows:
            if len(windows) < MAX_BENIGN_WINDOWS:
                x, y = rng.randint(0, 800), rng.randint(0, 600)
                w, h = rng.randint(80, 400), rng.randint(60, 300)

                def create() -> None:
                    wid = conn.create_window(self._root(), x, y, w, h)
                    conn.map_window(wid)
                    client.windows.append(wid)

                self._sup_run(create)
            elif windows:
                self._sup_run(conn.destroy_window, windows[0])
            return
        wid = rng.choice(windows)
        if action == "move":
            self._sup_run(
                conn.move_window, wid,
                rng.randint(-50, 900), rng.randint(-50, 700),
            )
        elif action == "resize":
            self._sup_run(
                conn.resize_window, wid,
                rng.randint(60, 500), rng.randint(50, 400),
            )
        elif action == "restack":
            self._sup_run(
                conn.raise_window if rng.random() < 0.5
                else conn.lower_window,
                wid,
            )
        elif action == "property":
            payload = "soak" * rng.randint(1, 24)
            self._sup_run(
                conn.change_property, wid, client.atom_soak,
                client.atom_string, 8, payload, PROP_MODE_REPLACE,
            )
        elif action == "warp":
            self._sup_run(
                conn.warp_pointer, self._root(),
                rng.randint(0, 1100), rng.randint(0, 850),
            )
        else:
            self._sup_run(conn.query_tree, self._root())

    def _batch_step(self) -> None:
        client = self.rng.choice(self.benign)
        conn, rng = client.conn, self.rng
        windows = [w for w in client.windows if conn.window_exists(w)]
        client.windows[:] = windows
        if not windows:
            self._benign_step()
            return
        ops = rng.randint(8, 24)

        def storm() -> None:
            with conn.batch():
                for _ in range(ops):
                    wid = rng.choice(windows)
                    if rng.random() < 0.7:
                        conn.move_window(
                            wid, rng.randint(0, 900), rng.randint(0, 700)
                        )
                    else:
                        conn.change_property(
                            wid, client.atom_soak, client.atom_string, 8,
                            "batch" * rng.randint(1, 12),
                            PROP_MODE_REPLACE,
                        )

        self._sup_run(storm)

    def _hostile_step(self) -> None:
        self._sup_run(self.fuzzer.step)

    def _mixed_step(self) -> None:
        roll = self.rng.random()
        if roll < 0.55:
            self._benign_step()
        elif roll < 0.75:
            self._hostile_step()
        else:
            self._batch_step()

    def _crash_phase(self, spec: PhaseSpec) -> None:
        """Drive benign traffic with a one-shot WM crash armed; the
        supervisor must recover and the oracles must hold after."""
        server = self.server

        def wm_only(client_id: int) -> bool:
            record = server.clients.get(client_id)
            return record is not None and record.name == "swm"

        plan = FaultPlan(derive_seed(self.seed, f"crash@{spec.name}"))
        rule = plan.rule(
            CRASH,
            probability=1.0,
            clients=wm_only,
            arm_after=CRASH_ARM_AFTER,
            max_fires=1,
            name=f"soak-{spec.name}",
        )
        server.install_faults(plan)
        try:
            for step in range(spec.steps):
                self._benign_step()
                if (step + 1) % self.profile.pump_every == 0:
                    self.supervisor.pump()
                if rule.fires and server.faults is plan:
                    # Crash landed and the supervisor recovered; run
                    # the rest of the phase clean.
                    server.clear_faults()
                    self.supervisor.pump()
        finally:
            if server.faults is plan:
                server.clear_faults()
        self.supervisor.pump()

    def _link_step(
        self,
        conn: ClientConnection,
        rng: random.Random,
        windows: List[int],
        atom_soak: int,
        atom_string: int,
    ) -> None:
        """One benign window action over the framed wire.  Unlike
        :meth:`_benign_step` this does not go through ``_sup_run`` —
        link failures must be healed by the transport's own resume
        machinery, not absorbed by the supervisor."""
        windows[:] = [w for w in windows if conn.window_exists(w)]
        action = rng.choice(
            ("create", "move", "resize", "restack", "property", "query")
        )
        if action == "create" or not windows:
            if len(windows) < MAX_BENIGN_WINDOWS:
                wid = conn.create_window(
                    self._root(),
                    rng.randint(0, 800), rng.randint(0, 600),
                    rng.randint(80, 400), rng.randint(60, 300),
                )
                conn.map_window(wid)
                windows.append(wid)
            else:
                conn.destroy_window(windows.pop(0))
            return
        wid = rng.choice(windows)
        if action == "move":
            conn.move_window(
                wid, rng.randint(-50, 900), rng.randint(-50, 700)
            )
        elif action == "resize":
            conn.resize_window(
                wid, rng.randint(60, 500), rng.randint(50, 400)
            )
        elif action == "restack":
            (conn.raise_window if rng.random() < 0.5
             else conn.lower_window)(wid)
        elif action == "property":
            conn.change_property(
                wid, atom_soak, atom_string, 8,
                "link" * rng.randint(1, 16), PROP_MODE_REPLACE,
            )
        else:
            conn.query_tree(self._root())

    def _link_chaos_phase(self, spec: PhaseSpec) -> dict:
        """Benign window traffic over the deterministic framed wire
        while a seeded link plan partitions, lags, reorders, corrupts
        and duplicates the byte stream.  Every flap must heal through
        the resilience layer (park + RESUME + event replay — windows,
        XIDs and quotas stay live while parked), the standing oracles
        must hold at every checkpoint, and at phase end — faults
        suspended — every window created over the link must still
        exist.  All rules arm after a short warmup so the handshake and
        atom interning run clean."""
        link_seed = derive_seed(self.seed, f"link@{spec.name}")
        host = FramedHost(
            self.server,
            ResilienceConfig(seed=link_seed, park_grace=60.0),
        )
        plan = FaultPlan(link_seed)
        plan.rule(PARTITION, probability=0.004, arm_after=16,
                  name=f"{spec.name}-partition")
        plan.rule(LAG, probability=0.01, lag=2, direction="s2c",
                  arm_after=16, name=f"{spec.name}-lag")
        plan.rule(REORDER, probability=0.008, arm_after=16,
                  name=f"{spec.name}-reorder")
        plan.rule(CORRUPT, probability=0.002, arm_after=16,
                  name=f"{spec.name}-corrupt")
        plan.rule(DUPLICATE, probability=0.008, arm_after=16,
                  name=f"{spec.name}-dup")
        transport = FramedTransport(host, plan, sleep=host.advance)
        conn = ClientConnection(
            name=f"soak-link-{spec.name}", transport=transport
        )
        rng = random.Random(derive_seed(self.seed, f"linkwork@{spec.name}"))
        atom_soak = conn.intern_atom("SWM_SOAK_LINK")
        atom_string = conn.intern_atom("STRING")
        stats = self.server.stats()
        keys = ("parked", "resumed", "replayed_events", "sessions_lost")

        def framed(key: str) -> int:
            return stats.get("wire", transport="framed", key=key)

        before = {key: framed(key) for key in keys}
        windows = self._link_windows
        for step in range(spec.steps):
            try:
                self._link_step(conn, rng, windows, atom_soak, atom_string)
            except (XError, ConnectionClosed):
                self.denials += 1
                if not transport.is_alive():
                    # Degradation floor: the session is truly gone
                    # (grace expiry / ring overflow ended in a clean
                    # close + save-set rescue) — the phase carries on
                    # without the link client.
                    windows.clear()
            if (step + 1) % self.profile.pump_every == 0:
                host.heartbeat_tick()
                self.supervisor.pump()
            if (step + 1) % self.profile.checkpoint_every == 0:
                self.checkpoint(f"{spec.name}@{step + 1}")
        lost = framed("sessions_lost") - before["sessions_lost"]
        with plan.suspended():
            if transport.is_alive():
                missing = [
                    w for w in windows if not conn.window_exists(w)
                ]
                if missing:
                    self._fail(
                        f"{spec.name}@wire",
                        [f"window {wid} lost across link flaps"
                         for wid in missing],
                    )
                conn.close()
        windows.clear()
        self.supervisor.pump()
        return {
            "seed": link_seed,
            "reconnects": transport.reconnects,
            "backoff_delays": len(transport.delays),
            "sessions_lost": lost,
            **{
                key: framed(key) - before[key]
                for key in keys if key != "sessions_lost"
            },
            "injected": dict(sorted(plan.counts.items())),
        }

    def _shard_chaos_phase(self, spec: PhaseSpec) -> dict:
        """A self-contained two-shard :class:`~.router.DisplayRouter`
        survives a seeded whole-shard crash mid-traffic: the victim is
        fenced, every routed client is evacuated to the survivor with
        zero window loss (``router.problems()`` is the oracle), the
        victim reboots on the recovery backoff and deferred admissions
        drain.  Runs beside the main soak session — the router's
        shards are their own servers, so the phase perturbs neither
        the main fault RNG nor the trace signature."""
        shard_seed = derive_seed(self.seed, f"shard@{spec.name}")
        router = DisplayRouter(
            shards=2,
            seed=shard_seed,
            store_dir=os.path.join(self.store_dir, f"shards-{spec.name}"),
            flight_dir=self.dump_dir,
            storm_threshold=10_000,
        )
        rng = random.Random(derive_seed(self.seed, f"shardwork@{spec.name}"))
        plan = FaultPlan(shard_seed)
        rule = plan.rule(
            SHARD_CRASH,
            probability=1.0,
            arm_after=min(CRASH_ARM_AFTER, max(1, spec.steps // 4)),
            max_fires=1,
            name=f"soak-{spec.name}",
        )
        router.shards[0].server.install_faults(plan)
        programs = ("xterm", "xclock", "xload", "oclock")
        problems: List[str] = []
        try:
            for step in range(spec.steps):
                live = [
                    rec for rec in router.clients.values()
                    if rec.shard_id is not None
                ]
                roll = rng.random()
                if roll < 0.4 and len(live) < 6:
                    router.place([rng.choice(programs)])
                elif roll < 0.85 and live:
                    rec = rng.choice(live)
                    shard = router.shards[rec.shard_id]
                    if (shard.health == SHARD_HEALTHY
                            and shard.wm is not None):
                        managed = shard.wm.managed.get(rec.wid)
                        if managed is not None:
                            router.call(
                                shard.id, shard.wm.move_managed_to,
                                managed,
                                rng.randint(0, 900), rng.randint(0, 700),
                            )
                elif len(live) > 3:
                    rec = live[0]
                    if rec.app is not None:
                        router.call(rec.shard_id, rec.app.quit)
                    router.forget(rec.cid)
                router.pump()
                if (step + 1) % self.profile.pump_every == 0:
                    # The main desktop keeps running while the remote
                    # shard fleet fails over.
                    self._benign_step()
                    self.supervisor.pump()
            # Let the fenced shard reboot and deferred placements drain.
            for _ in range(64):
                if (all(s.health == SHARD_HEALTHY
                        for s in router.shards.values())
                        and not router.deferred):
                    break
                router.pump()
            if not rule.fires:
                problems.append(
                    f"shard crash never fired (seen={rule.seen})"
                )
            problems.extend(router.problems())
            if problems:
                self._fail(f"{spec.name}@shards", problems)
            stats = router.stats()
            return {
                "seed": shard_seed,
                "placements": stats["placements"],
                "evacuations": stats["evacuations"],
                "deferred_admissions": stats["deferred_admissions"],
                "failovers": stats["failovers"],
                "recoveries": stats["recoveries"],
                "heartbeats": stats["heartbeats"],
                "injected": dict(sorted(plan.counts.items())),
            }
        finally:
            router.close()

    # -- oracles -----------------------------------------------------------

    def _expected_clients(self) -> List[int]:
        """Benign top-levels the WM must be managing: alive and mapped
        (an unmapped one is still waiting on its MapRequest)."""
        expected = []
        for client in self.benign:
            for wid in client.windows:
                window = self.server.windows.get(wid)
                if window is not None and not window.destroyed and window.mapped:
                    expected.append(wid)
        for wid in self._link_windows:
            window = self.server.windows.get(wid)
            if window is not None and not window.destroyed and window.mapped:
                expected.append(wid)
        return expected

    def checkpoint(self, where: str) -> None:
        """Drain the pump, then hold the run to the three oracles.
        Oracle traffic reads server structures directly (never issues
        requests), so checks cannot perturb fault RNG or the trace."""
        self.supervisor.pump()
        wm = self.supervisor.wm
        problems = []
        if wm is not None:
            problems += wm_consistency_problems(wm)
            problems += adoption_problems(wm, self._expected_clients())
        problems += quota_problems(self.server)
        self.oracle_checks += 1
        if problems:
            self._fail(where, problems)

    def _fail(self, where: str, problems: List[str]) -> None:
        dump = None
        tracer = self.server.tracer
        if self.dump_dir is not None and tracer.enabled:
            dump = tracer.dump(
                os.path.join(self.dump_dir, f"flight-oracle-{where}.json"),
                reason=f"oracle:{where}",
                seed=self.seed,
                extra={"problems": problems},
            )
        detail = "\n  ".join(problems)
        raise SoakFailure(
            f"oracle drift at {where}"
            + (f" (flight dump: {dump})" if dump else "")
            + f":\n  {detail}"
        )

    # -- phase driving -----------------------------------------------------

    _STEPPERS = {
        "benign": "_benign_step",
        "batch_storm": "_batch_step",
        "hostile": "_hostile_step",
        "mixed": "_mixed_step",
    }

    def _counters(self) -> dict:
        stats = self.server.stats()
        return {
            "requests": stats.get("requests"),
            "delivered": stats.get("delivered"),
            "coalesced": stats.get("coalesced"),
            "dropped": stats.get("dropped"),
            "shed": stats.get("shed"),
            "throttles": stats.get("throttles"),
            "quota_denials": stats.get("quota_denials"),
            "injected_faults": stats.get("injected"),
            "batched": stats.get("batched"),
            "guarded_errors": stats.get("guarded"),
        }

    def _run_phase(self, spec: PhaseSpec) -> dict:
        tracer = self.server.tracer
        if tracer.enabled:
            tracer.reset_metrics()  # per-phase histograms
        before = self._counters()
        crashes_before = len(self.supervisor.crashes)
        wall_start = time.perf_counter()

        link_info: Optional[dict] = None
        shard_info: Optional[dict] = None
        if spec.kind == "crash":
            self._crash_phase(spec)
        elif spec.kind == "link_chaos":
            link_info = self._link_chaos_phase(spec)
        elif spec.kind == "shard_chaos":
            shard_info = self._shard_chaos_phase(spec)
        else:
            stepper = getattr(self, self._STEPPERS[spec.kind])
            for step in range(spec.steps):
                stepper()
                if (step + 1) % self.profile.pump_every == 0:
                    self.supervisor.pump()
                if (step + 1) % self.profile.checkpoint_every == 0:
                    self.checkpoint(f"{spec.name}@{step + 1}")
        self.supervisor.pump()
        wall = time.perf_counter() - wall_start
        self.checkpoint(f"{spec.name}@end")

        after = self._counters()
        deltas = {key: after[key] - before[key] for key in before}
        record = {
            "name": spec.name,
            "kind": spec.kind,
            "steps": spec.steps,
            **deltas,
            "cache_hit_rate": round(self.server.stats().cache_hit_rate(), 4),
            "crashes": len(self.supervisor.crashes) - crashes_before,
            "restarts": self.supervisor.restarts,
            # Wall-clock section: excluded from determinism guarantees.
            "wall_s": round(wall, 3),
            "throughput_rps": round(deltas["requests"] / wall, 1)
            if wall > 0 else 0.0,
        }
        if tracer.enabled:
            trace_snap = tracer.snapshot()
            requests_hist = trace_snap["requests"]
            record["latency"] = {
                "p50_ns": requests_hist["p50_ns"],
                "p95_ns": requests_hist["p95_ns"],
                "p99_ns": requests_hist["p99_ns"],
                "max_ns": requests_hist["max_ns"],
            }
            record["subsystems"] = {
                name: {"count": hist["count"], "p99_ns": hist["p99_ns"]}
                for name, hist in trace_snap["subsystems"].items()
            }
            # Deterministic per seed: span count + running signature.
            record["spans"] = trace_snap["spans"]
            record["signature"] = trace_snap["signature"]
        if link_info is not None:
            # Fully deterministic per (seed, profile), like the counts.
            record["link"] = link_info
        if shard_info is not None:
            record["shards"] = shard_info
        return record

    def run(self) -> dict:
        """Execute every phase; returns (and stores) the payload."""
        phases: List[dict] = []
        wall_start = time.perf_counter()
        storm: Optional[str] = None
        try:
            for spec in self.profile.phases:
                phases.append(self._run_phase(spec))
        except CrashStorm as err:
            storm = str(err)
        finally:
            wall = time.perf_counter() - wall_start
            tracer = self.server.tracer
            self.result = {
                "schema": SCHEMA,
                "seed": self.seed,
                "profile": self.profile.name,
                "replay": (
                    f"PYTHONPATH=src python -m repro soak"
                    f" --seed {self.seed} --profile {self.profile.name}"
                ),
                "phases": phases,
                "totals": {
                    "steps": self.profile.total_steps(),
                    "requests": self.server.stats().get("requests"),
                    "denials": self.denials,
                    "oracle_checks": self.oracle_checks,
                    "crashes": len(self.supervisor.crashes),
                    "restarts": self.supervisor.restarts,
                    "checkpoint_saves": self.store.saves,
                    "crash_storm": storm,
                    "flight_dumps": list(self.supervisor.flight_dumps),
                    "span_count": tracer.spans,
                    "signature": f"{tracer.signature:08x}",
                    "wall_s": round(wall, 3),
                },
            }
        if storm is not None:
            raise SoakFailure(f"crash storm tripped mid-soak: {storm}")
        return self.result

    def write(self, path: str) -> str:
        """Export the result payload (run() first) as JSON."""
        if self.result is None:
            raise RuntimeError("run() the soak before write()")
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def close(self) -> None:
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def run_soak(
    seed: int,
    profile: str = "ci",
    out: Optional[str] = None,
    dump_dir: Optional[str] = None,
    store_dir: Optional[str] = None,
) -> Tuple[int, Optional[dict]]:
    """CLI driver: returns (exit code, result payload).  Exit codes:
    0 clean, 1 oracle drift, 2 crash storm.  The payload (possibly
    partial) is written to *out* even on failure."""
    runner = SoakRunner(
        seed, profile, store_dir=store_dir, dump_dir=dump_dir
    )
    code = 0
    try:
        runner.run()
    except SoakFailure as err:
        code = 2 if "crash storm" in str(err) else 1
        print(f"SOAK FAILED: {err}")
    finally:
        if out is not None and runner.result is not None:
            runner.write(out)
        runner.close()
    return code, runner.result


__all__ = [
    "PROFILES",
    "PhaseSpec",
    "SCHEMA",
    "SoakFailure",
    "SoakProfile",
    "SoakRunner",
    "derive_seed",
    "run_soak",
]
