"""Display router: N supervised shards, live migration, failover.

The VEPP-5 control-room scenario (PAPERS.md) is the design anchor: one
logical desktop spanning many physical screens whose operator clients
must never be lost.  :class:`DisplayRouter` fronts N :class:`~repro.
xserver.shard.Shard` stacks (each a full ``XServer`` + ``Swm`` under
its own ``Supervisor``) and owns the cross-shard policy:

* **placement** — :meth:`place` starts a client on the healthy shard
  carrying the fewest routed clients;
* **live migration** — :meth:`migrate` snapshots a client's managed
  state (geometry/sticky/desktop) into a restart record, quits the
  source copy, hands the record to the target WM's live restart table
  (:meth:`~repro.core.subsystems.restart.RestartController.
  absorb_restart_records`) and relaunches the client there, where
  cold-start adoption re-manages it with its state replayed;
* **failover** — a shard death (:class:`~repro.xserver.faults.
  ShardCrash` / :class:`~repro.xserver.faults.ShardHang` escaping a
  supervised call, or a router<->shard partition starving the
  heartbeat past the miss budget) fences the shard and evacuates every
  routed client onto the survivors through the same checkpoint →
  absorb → relaunch → adopt path — zero window loss, because the
  router's registry is authoritative even when the checkpoint is
  stale;
* **degraded admission** — with no healthy shard, placements are
  deferred under a seeded bounded backoff and drained by :meth:`pump`
  once a shard returns (a fenced shard reboots after a recovery
  backoff, modelling the machine coming back).

Determinism: shard faults are ordinary :class:`~repro.xserver.faults.
FaultPlan` rules (one RNG draw per matching armed rule per request
tick), the heartbeat channel consults a router-level link plan with
the same discipline (one ``FaultPlan.pick`` of a link fault per
healthy shard per pump, every fired rule recorded), and all router
backoffs draw from a private seeded RNG — so a (seed, workload) pair
replays a failover bit-identically.  With a single shard and no faults
the router adds *zero* X requests to the stack it fronts (heartbeats
are router-level bookkeeping, placement reads no server state), so an
N=1 router is counter-identical to a bare supervised server.
"""

from __future__ import annotations

import os
import random
import shlex
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..clients import launch_command
from ..xserver.faults import LINK_KINDS, PARTITION, FaultPlan, ShardCrash, ShardHang
from ..xserver.shard import DEAD, HEALTHY, HUNG, Shard
from ..xserver.wire.resilience import backoff
from .hints import RestartHints
from .places import parse_places

#: Recovery/deferral backoff bounds, in router pumps.
BACKOFF_BASE = 2
BACKOFF_CAP = 16


@dataclass
class RoutedClient:
    """One client the router placed (the authoritative registry row)."""

    cid: int
    argv: List[str]
    #: Current shard, or ``None`` while the admission is deferred.
    shard_id: Optional[int] = None
    app: object = None
    #: Deferred-admission bookkeeping (router pumps).
    attempts: int = 0
    due: int = 0

    @property
    def wid(self) -> Optional[int]:
        return self.app.wid if self.app is not None else None

    @property
    def command(self) -> str:
        return " ".join(shlex.quote(arg) for arg in self.argv)


@dataclass
class FailoverRecord:
    """One shard death the router survived."""

    tick: int
    shard_id: int
    reason: str
    evacuated: List[int] = field(default_factory=list)
    deferred: List[int] = field(default_factory=list)


class DisplayRouter:
    """Places clients across supervised shards and survives shard death."""

    def __init__(
        self,
        shards: int = 2,
        *,
        seed: int = 1337,
        store_dir: Optional[str] = None,
        screens=((1152, 900, 8),),
        wm_factory: Optional[Callable] = None,
        flight_dir: Optional[str] = None,
        miss_budget: int = 3,
        **shard_opts,
    ) -> None:
        if shards < 1:
            raise ValueError("a display router needs at least one shard")
        self.seed = seed
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="swm-router-")
            store_dir = self._tmpdir.name
        self.store_dir = store_dir
        #: Consecutive missed heartbeats before a partitioned shard is
        #: presumed dead and fenced.
        self.miss_budget = miss_budget
        #: Private seeded RNG for recovery/deferral backoff jitter —
        #: never shared with any fault plan, so router timing cannot
        #: perturb an injection sequence.
        self._rng = random.Random(seed)
        self.shards: Dict[int, Shard] = {}
        for index in range(shards):
            shard = Shard(
                index,
                os.path.join(store_dir, f"shard{index}"),
                screens=screens,
                wm_factory=wm_factory,
                flight_dir=flight_dir,
                flight_seed=seed,
                **shard_opts,
            )
            shard.start()
            self.shards[index] = shard
        #: Authoritative registry: every client the router ever placed
        #: and has not been told is gone.
        self.clients: Dict[int, RoutedClient] = {}
        self._next_cid = 1
        #: cids awaiting admission (FIFO), drained by :meth:`pump`.
        self.deferred: List[int] = []
        #: Router<->shard heartbeat-channel fault plan (link kinds).
        self.link_plan: Optional[FaultPlan] = None
        #: Router pump counter — the clock recovery/deferral run on.
        self.ticks = 0
        self.placements = 0
        self.migrations = 0
        self.evacuations = 0
        self.deferred_admissions = 0
        self.recoveries = 0
        self.heartbeats = 0
        self.missed_heartbeats = 0
        self.failovers: List[FailoverRecord] = []

    # -- link faults -------------------------------------------------------

    def install_link_faults(self, plan: FaultPlan) -> FaultPlan:
        """Install *plan* on the router<->shard heartbeat channel.
        Rules use the link kinds (PR 12); ``clients`` filters select
        shard ids.  Only PARTITION starves a heartbeat — the other
        link kinds model a slow channel the miss budget tolerates."""
        self.link_plan = plan
        return plan

    def clear_link_faults(self) -> Optional[FaultPlan]:
        plan, self.link_plan = self.link_plan, None
        return plan

    # -- placement ---------------------------------------------------------

    def _load(self, shard_id: int) -> int:
        return sum(
            1 for rec in self.clients.values() if rec.shard_id == shard_id
        )

    def _pick_shard(self) -> Optional[Shard]:
        healthy = [s for s in self.shards.values() if s.health == HEALTHY]
        if not healthy:
            return None
        return min(healthy, key=lambda s: (self._load(s.id), s.id))

    def place(self, argv: List[str]) -> RoutedClient:
        """Start *argv* on the least-loaded healthy shard.  With no
        healthy shard the admission is deferred (seeded bounded
        backoff) and retried by :meth:`pump`; the returned record's
        ``shard_id`` stays ``None`` until it lands."""
        rec = RoutedClient(self._next_cid, list(argv))
        self._next_cid += 1
        self.clients[rec.cid] = rec
        shard = self._pick_shard()
        if shard is None:
            self._defer(rec)
            return rec
        if not self._launch(rec, shard):
            # The launch itself killed the shard; _shard_died already
            # queued the record for readmission.
            return rec
        self.placements += 1
        return rec

    def _launch(self, rec: RoutedClient, shard: Shard) -> bool:
        """Start ``rec`` on *shard*; on a shard fault mid-launch the
        shard is fenced (which re-defers the record) and False comes
        back."""
        rec.shard_id = shard.id
        try:
            rec.app = launch_command(shard.server, rec.argv)
            shard.pump()
        except (ShardCrash, ShardHang) as fault:
            self._shard_died(shard, fault)
            return False
        return True

    def _defer(self, rec: RoutedClient) -> None:
        rec.shard_id = None
        rec.app = None
        rec.attempts += 1
        delay = backoff(rec.attempts - 1, BACKOFF_BASE, BACKOFF_CAP)
        rec.due = self.ticks + delay + self._rng.randrange(0, 2)
        self.deferred.append(rec.cid)
        self.deferred_admissions += 1

    def forget(self, cid: int) -> None:
        """The client is gone on purpose (quit); drop it from the
        registry so failover stops trying to resurrect it."""
        self.clients.pop(cid, None)
        if cid in self.deferred:
            self.deferred.remove(cid)

    # -- supervised access -------------------------------------------------

    def call(self, shard_id: int, fn: Callable, *args, default=None,
             **kwargs):
        """Run one unit of work against *shard_id*, absorbing a shard
        fault into fence-and-evacuate.  WM crashes are still handled a
        layer down by the shard's own supervisor."""
        shard = self.shards[shard_id]
        try:
            return fn(*args, **kwargs)
        except (ShardCrash, ShardHang) as fault:
            self._shard_died(shard, fault)
            return default

    # -- heartbeats, recovery, deferred admissions -------------------------

    def pump(self) -> None:
        """One router tick: pump every healthy shard (fencing any that
        dies mid-pump), run a heartbeat round against the link plan,
        reboot fenced shards whose recovery backoff expired, and drain
        deferred admissions onto healthy capacity."""
        self.ticks += 1
        for shard in list(self.shards.values()):
            if shard.health != HEALTHY:
                continue
            try:
                shard.pump()
            except (ShardCrash, ShardHang) as fault:
                self._shard_died(shard, fault)
        self._heartbeat_round()
        self._recover_shards()
        self._drain_deferred()

    def _heartbeat_round(self) -> None:
        """One liveness probe per healthy shard.  The transit consults
        the router-level link plan exactly once (one draw per matching
        armed rule) and records any fault that fires; only a PARTITION
        starves the probe.  ``miss_budget`` consecutive losses fence
        the shard."""
        for shard in self.shards.values():
            if shard.health != HEALTHY:
                continue
            self.heartbeats += 1
            lost = False
            if self.link_plan is not None:
                rule = self.link_plan.pick(LINK_KINDS, "c2s", shard.id)
                if rule is not None:
                    lost = rule.kind == PARTITION
                    self.link_plan.record(
                        rule, "heartbeat", shard.id,
                        "probe lost" if lost else "probe answered",
                    )
            if lost:
                shard.misses += 1
                self.missed_heartbeats += 1
                if shard.misses >= self.miss_budget:
                    self._shard_died(shard, None, reason="partition")
            else:
                shard.misses = 0

    def _recover_shards(self) -> None:
        for shard in self.shards.values():
            if shard.health == HEALTHY or self.ticks < shard.recover_due:
                continue
            shard.reboot()
            self.recoveries += 1

    def _drain_deferred(self) -> None:
        pending, self.deferred = self.deferred, []
        for cid in pending:
            rec = self.clients.get(cid)
            if rec is None:
                continue
            if self.ticks < rec.due:
                self.deferred.append(cid)
                continue
            shard = self._pick_shard()
            if shard is None or not self._launch(rec, shard):
                self._defer(rec)
                continue
            self.placements += 1

    # -- failover ----------------------------------------------------------

    def _shard_died(self, shard: Shard, fault, reason: str = "") -> None:
        """Fence *shard* and evacuate its routed clients.  Idempotent:
        a fault cascading out of the evacuation's own pumping cannot
        re-fence."""
        if shard.health != HEALTHY:
            return
        if not reason:
            kind = "hang" if isinstance(fault, ShardHang) else "crash"
            reason = f"{kind}@{fault.crash_point}"
        shard.health = HUNG if isinstance(fault, ShardHang) else DEAD
        shard.failures += 1
        delay = backoff(shard.failures - 1, BACKOFF_BASE, BACKOFF_CAP)
        shard.recover_due = self.ticks + delay + self._rng.randrange(0, 2)
        record = FailoverRecord(self.ticks, shard.id, reason)
        self.failovers.append(record)
        self._evacuate(shard, record)

    def _evacuate(self, shard: Shard, record: FailoverRecord) -> None:
        """Re-home every routed client of a fenced shard: the last
        checkpoint supplies geometry/sticky/desktop (bounded staleness,
        PR 4's contract), the registry guarantees nobody is skipped
        even if they were placed after the last autosave."""
        table = self._checkpoint_hints(shard)
        evacuees = [
            rec for rec in self.clients.values()
            if rec.shard_id == shard.id
        ]
        for rec in sorted(evacuees, key=lambda r: r.cid):
            target = self._pick_shard()
            if target is None:
                # Total outage: park the admission, re-place on return.
                self._defer(rec)
                record.deferred.append(rec.cid)
                continue
            hints = self._take_hints(table, rec.command)
            self._rehome(rec, target, hints)
            record.evacuated.append(rec.cid)
            self.evacuations += 1

    def _rehome(
        self, rec: RoutedClient, target: Shard, hints: Optional[RestartHints]
    ) -> None:
        """The handover: absorb the restart record into the target WM's
        live table, relaunch the client there, and run cold-start
        adoption so the new window is re-managed with its saved state
        replayed (geometry/sticky/desktop via match_restart_entry)."""
        if hints is not None:
            target.run(
                target.wm.session.absorb_restart_records, [hints]
            )
        rec.shard_id = target.id
        rec.app = launch_command(target.server, rec.argv)
        target.run(target.wm.session.adopt_existing)
        target.pump()

    def _checkpoint_hints(self, shard: Shard) -> List[RestartHints]:
        checkpoint = shard.store.load()
        if checkpoint is None:
            return []
        return [entry.hints for entry in parse_places(checkpoint.text)]

    @staticmethod
    def _take_hints(
        table: List[RestartHints], command: str
    ) -> Optional[RestartHints]:
        for hints in table:
            if hints.command == command:
                table.remove(hints)
                return hints
        return None

    # -- live migration ----------------------------------------------------

    def migrate(self, cid: int, shard_id: int) -> RoutedClient:
        """Move a live client to *shard_id*: snapshot its managed state
        into a restart record, quit the source copy, and re-establish
        it on the target through the same absorb → relaunch → adopt
        path a failover uses."""
        rec = self.clients[cid]
        target = self.shards[shard_id]
        if target.health != HEALTHY:
            raise ValueError(f"shard {shard_id} is {target.health}")
        if rec.shard_id == shard_id:
            return rec
        if rec.shard_id is None:
            raise ValueError(f"client {cid} is deferred, not placed")
        source = self.shards[rec.shard_id]
        try:
            hints = self._snapshot_hints(source, rec)
            source.run(rec.app.quit)
            source.pump()
        except (ShardCrash, ShardHang) as fault:
            # The source died under us: this became a failover, and
            # the evacuation already re-homed rec somewhere healthy.
            self._shard_died(source, fault)
            return rec
        self._rehome(rec, target, hints)
        self.migrations += 1
        return rec

    def rebalance(self) -> int:
        """Even the load after a failover left it lopsided: live-migrate
        clients from the fullest healthy shard to the emptiest until
        they differ by at most one.  Returns clients moved."""
        moved = 0
        while True:
            healthy = [
                s for s in self.shards.values() if s.health == HEALTHY
            ]
            if len(healthy) < 2:
                return moved
            by_load = sorted(healthy, key=lambda s: (self._load(s.id), s.id))
            low, high = by_load[0], by_load[-1]
            if self._load(high.id) - self._load(low.id) <= 1:
                return moved
            rec = max(
                (r for r in self.clients.values() if r.shard_id == high.id),
                key=lambda r: r.cid,
            )
            self.migrate(rec.cid, low.id)
            moved += 1

    def _snapshot_hints(
        self, source: Shard, rec: RoutedClient
    ) -> Optional[RestartHints]:
        """Fresh restart record for one live client — read from the
        managed window itself, falling back to the last checkpoint if
        the WM is mid-restart."""
        from .places import format_entry, restart_inputs

        wm = source.wm
        managed = wm.managed.get(rec.wid) if wm is not None else None
        if managed is not None:
            inputs = restart_inputs(wm, managed)
            if inputs is not None:
                return format_entry(inputs, "").hints
        return self._take_hints(
            self._checkpoint_hints(source), rec.command
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Router counters + per-shard health, one snapshot."""
        return {
            "placements": self.placements,
            "migrations": self.migrations,
            "evacuations": self.evacuations,
            "deferred_admissions": self.deferred_admissions,
            "pending_deferred": len(self.deferred),
            "failovers": len(self.failovers),
            "recoveries": self.recoveries,
            "heartbeats": self.heartbeats,
            "missed_heartbeats": self.missed_heartbeats,
            "clients": len(self.clients),
            "shards": {
                shard.id: {**shard.snapshot(), "clients": self._load(shard.id)}
                for shard in self.shards.values()
            },
        }

    def problems(self) -> List[str]:
        """The router-level oracle: every healthy shard's WM passes the
        consistency oracle, and every placed client in the registry is
        alive and managed on its recorded shard (zero window loss)."""
        from ..testing import wm_consistency_problems

        problems: List[str] = []
        for shard in self.shards.values():
            if shard.health != HEALTHY or shard.wm is None:
                continue
            problems += [
                f"shard {shard.id}: {p}"
                for p in wm_consistency_problems(shard.wm)
            ]
        for rec in self.clients.values():
            if rec.shard_id is None:
                continue  # deferred: awaiting capacity, by design
            shard = self.shards[rec.shard_id]
            if shard.health != HEALTHY:
                problems.append(
                    f"client {rec.cid} routed to fenced shard {shard.id}"
                )
                continue
            wm = shard.wm
            if rec.app is None or not rec.app.conn.is_alive():
                problems.append(f"client {rec.cid} has no live connection")
            elif wm is not None and rec.wid not in wm.managed:
                problems.append(
                    f"client {rec.cid} window {rec.wid:#x} unmanaged"
                    f" on shard {shard.id}"
                )
        return problems

    def close(self) -> None:
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


__all__ = ["DisplayRouter", "FailoverRecord", "RoutedClient"]
