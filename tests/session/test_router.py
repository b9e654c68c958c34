"""Display router unit tests: load-balanced placement, live migration
with geometry replay, deferred admission under total outage,
heartbeat-partition fencing, post-failover rebalance, the stats
snapshot, and mid-flight restart-record absorption (the cross-shard
adoption hook).  The kill-any-shard chaos tour lives in
``tests/chaos/test_chaos_router.py``; these tests pin the router's
policy mechanics one behavior at a time."""

import pytest

from repro.session.hints import RestartHints, read_restart_property
from repro.session.router import BACKOFF_CAP, DisplayRouter
from repro.xserver.faults import LAG, PARTITION, SHARD_CRASH, FaultPlan
from repro.xserver.shard import HEALTHY

SEED = 424242


@pytest.fixture
def router(tmp_path):
    router = DisplayRouter(
        shards=2,
        seed=SEED,
        store_dir=str(tmp_path / "router"),
        storm_threshold=10_000,
    )
    yield router
    router.close()


def loads(router):
    return [router._load(shard_id) for shard_id in sorted(router.shards)]


class TestPlacement:
    def test_needs_at_least_one_shard(self, tmp_path):
        with pytest.raises(ValueError):
            DisplayRouter(shards=0, store_dir=str(tmp_path / "r"))

    def test_balances_by_load(self, router):
        for _ in range(4):
            router.place(["xterm"])
        router.pump()
        assert loads(router) == [2, 2]
        assert router.stats()["placements"] == 4
        assert router.problems() == []

    def test_placed_clients_are_managed(self, router):
        rec = router.place(["xclock", "-geometry", "+40+60"])
        router.pump()
        shard = router.shards[rec.shard_id]
        assert rec.wid in shard.wm.managed

    def test_ties_break_to_lowest_shard_id(self, router):
        first = router.place(["xterm"])
        second = router.place(["xterm"])
        assert first.shard_id == 0
        assert second.shard_id == 1


class TestMigration:
    def test_migrate_replays_position(self, router):
        rec = router.place(["xterm"])
        router.pump()
        source = router.shards[rec.shard_id]
        managed = source.wm.managed[rec.wid]
        source.wm.move_managed_to(managed, 300, 200)
        position = source.wm.client_desktop_position(managed)
        old_wid = rec.wid

        router.migrate(rec.cid, 1)
        router.pump()

        assert rec.shard_id == 1
        target = router.shards[1]
        assert rec.wid in target.wm.managed
        assert old_wid not in source.wm.managed
        replayed = target.wm.client_desktop_position(
            target.wm.managed[rec.wid]
        )
        assert (replayed.x, replayed.y) == (position.x, position.y)
        assert router.stats()["migrations"] == 1
        assert router.problems() == []

    def test_migrate_to_same_shard_is_a_noop(self, router):
        rec = router.place(["xterm"])
        router.pump()
        router.migrate(rec.cid, rec.shard_id)
        assert router.migrations == 0

    def test_migrate_to_fenced_shard_is_refused(self, router):
        rec = router.place(["xterm"])
        router.pump()
        plan = FaultPlan(SEED)
        plan.rule(SHARD_CRASH, probability=1.0, max_fires=1)
        victim = router.shards[1]
        victim.server.install_faults(plan)
        router.call(1, victim.wm.warp_pointer_by, 1, 1)
        assert victim.health != HEALTHY
        with pytest.raises(ValueError):
            router.migrate(rec.cid, 1)

    def test_rebalance_levels_a_lopsided_router(self, router):
        records = [router.place(["xterm"]) for _ in range(4)]
        router.pump()
        for rec in records:
            if rec.shard_id == 1:
                router.call(1, rec.app.quit)
                router.forget(rec.cid)
        router.pump()
        assert loads(router) == [2, 0]
        moved = router.rebalance()
        assert moved == 1
        assert loads(router) == [1, 1]
        assert router.problems() == []


class TestDeferredAdmission:
    def test_total_outage_defers_then_drains(self, tmp_path):
        router = DisplayRouter(
            shards=1,
            seed=SEED,
            store_dir=str(tmp_path / "solo"),
            storm_threshold=10_000,
        )
        try:
            plan = FaultPlan(SEED)
            plan.rule(SHARD_CRASH, probability=1.0, max_fires=1)
            router.shards[0].server.install_faults(plan)
            rec = router.place(["xterm"])
            # The launch itself killed the only shard: the admission
            # is parked, not lost.
            assert rec.shard_id is None
            assert rec.cid in router.deferred
            assert router.deferred_admissions >= 1
            assert router.problems() == []

            for _ in range(3 * BACKOFF_CAP):
                router.pump()
                if rec.shard_id is not None:
                    break
            assert rec.shard_id == 0
            assert router.shards[0].health == HEALTHY
            assert rec.wid in router.shards[0].wm.managed
            assert router.stats()["recoveries"] == 1
            assert router.problems() == []
        finally:
            router.close()


class TestHeartbeats:
    def test_partition_past_miss_budget_fences_and_evacuates(self, router):
        records = [router.place(["xterm"]) for _ in range(2)]
        router.pump()
        victim_recs = [r for r in records if r.shard_id == 1]
        assert victim_recs

        plan = FaultPlan(SEED)
        plan.rule(
            PARTITION,
            probability=1.0,
            direction="c2s",
            clients=(1,),
        )
        router.install_link_faults(plan)
        for _ in range(router.miss_budget):
            router.pump()
        router.clear_link_faults()

        assert router.shards[1].health != HEALTHY
        assert router.missed_heartbeats == router.miss_budget
        record = router.failovers[-1]
        assert record.reason == "partition"
        for rec in victim_recs:
            assert rec.shard_id == 0
            assert rec.wid in router.shards[0].wm.managed
        assert router.problems() == []

    def test_clean_heartbeats_reset_misses(self, router):
        plan = FaultPlan(SEED)
        plan.rule(
            PARTITION,
            probability=1.0,
            direction="c2s",
            clients=(1,),
            max_fires=1,
        )
        router.install_link_faults(plan)
        router.pump()
        assert router.shards[1].misses == 1
        router.pump()
        assert router.shards[1].misses == 0
        assert router.shards[1].health == HEALTHY

    def test_non_partition_probe_faults_are_logged(self, router):
        """A link fault that does not starve the probe still fires, so
        it lands in the plan's log and counts like any other fault."""
        plan = FaultPlan(SEED)
        rule = plan.rule(
            LAG,
            probability=1.0,
            direction="c2s",
            clients=(1,),
            max_fires=3,
        )
        router.install_link_faults(plan)
        for _ in range(4):
            router.pump()
        assert rule.fires == 3
        assert plan.injected(LAG) == 3
        assert [(f.kind, f.target, f.client_id) for f in plan.log] == [
            (LAG, "heartbeat", 1)
        ] * 3
        assert router.shards[1].health == HEALTHY
        assert router.shards[1].misses == 0
        assert router.missed_heartbeats == 0


class TestStats:
    def test_snapshot_shape(self, router):
        router.place(["xterm"])
        router.pump()
        stats = router.stats()
        for key in (
            "placements", "migrations", "evacuations",
            "deferred_admissions", "pending_deferred", "failovers",
            "recoveries", "heartbeats", "missed_heartbeats", "clients",
            "shards",
        ):
            assert key in stats
        assert set(stats["shards"]) == {0, 1}
        for snap in stats["shards"].values():
            for key in ("health", "generation", "failures", "clients",
                        "crashes", "restarts", "flight_dumps"):
                assert key in snap


class TestAbsorbRestartRecords:
    def test_absorbs_into_live_table_and_root_property(self, router):
        shard = router.shards[0]
        wm = shard.wm
        hints = RestartHints.from_argv(
            ["swmhints", "-geometry", "200x100+30+40", "-cmd", "xeyes"]
        )
        absorbed = wm.session.absorb_restart_records([hints])
        assert absorbed == 1
        entry = wm.session.restart_table[-1]
        assert entry["command"] == "xeyes"
        assert str(entry["geometry"]) == "200x100+30+40"
        # Durable: the record also landed on the root property, so a
        # successor WM can still reconcile the handover after a crash.
        root = shard.server.screens[0].root.id
        table = read_restart_property(wm.conn, root)
        assert any(row["command"] == "xeyes" for row in table)

    def test_non_durable_absorb_skips_the_property(self, router):
        shard = router.shards[1]
        wm = shard.wm
        hints = RestartHints.from_argv(["swmhints", "-cmd", "xload"])
        wm.session.absorb_restart_records([hints], durable=False)
        assert wm.session.restart_table[-1]["command"] == "xload"
        root = shard.server.screens[0].root.id
        table = read_restart_property(wm.conn, root)
        assert not any(row["command"] == "xload" for row in table)
