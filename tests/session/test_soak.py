"""The soak harness: a quick-profile run must complete with zero
oracle drift, replay bit-identically for the same seed, survive its
injected WM crash with a flight dump ending at the crash span, and
export the ``swm-soak/1`` payload CI consumes."""

import json

import pytest

from repro.session.soak import (
    PROFILES,
    SCHEMA,
    SoakRunner,
    derive_seed,
    run_soak,
)

SEED = 20260808


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One shared quick-profile run (module scope keeps the suite
    fast); tests only read its results."""
    base = tmp_path_factory.mktemp("soak")
    runner = SoakRunner(
        SEED, "quick",
        store_dir=str(base / "store"),
        dump_dir=str(base / "dumps"),
    )
    result = runner.run()
    yield runner, result
    runner.close()


class TestQuickProfile:
    def test_completes_clean(self, quick_run):
        runner, result = quick_run
        totals = result["totals"]
        assert totals["crash_storm"] is None
        assert totals["oracle_checks"] > 0
        assert totals["requests"] > 1000
        assert len(result["phases"]) == len(PROFILES["quick"].phases)

    def test_crash_phase_recovered(self, quick_run):
        runner, result = quick_run
        totals = result["totals"]
        # The crash phases fire exactly one WMCrash each; the
        # supervisor restarted the WM every time.
        crash_phases = [p for p in result["phases"] if p["kind"] == "crash"]
        assert crash_phases
        assert totals["crashes"] >= len(crash_phases)
        assert totals["restarts"] == totals["crashes"] + 1

    def test_phase_records_carry_latency_and_signature(self, quick_run):
        runner, result = quick_run
        for phase in result["phases"]:
            assert phase["requests"] > 0
            assert set(phase["latency"]) == {
                "p50_ns", "p95_ns", "p99_ns", "max_ns"
            }
            assert phase["latency"]["p99_ns"] > 0
            assert len(phase["signature"]) == 8
            assert "cache_hit_rate" in phase
        # Subsystem p99s appear once the WM has handled events.
        assert any(p["subsystems"] for p in result["phases"])

    def test_flight_dump_ends_at_crash_span(self, quick_run):
        runner, result = quick_run
        dumps = result["totals"]["flight_dumps"]
        assert dumps, "crash phase produced no flight dump"
        artifact = json.load(open(dumps[0]))
        assert artifact["schema"] == "swm-flight/1"
        assert artifact["seed"] == SEED
        assert artifact["reason"].startswith("WMCrash:")
        spans = artifact["spans"]
        # The ring must end at the crashing request (its span and the
        # outer request it unwound through), with at least 100 spans of
        # preceding history for the post-mortem.
        crash_tail = [
            s for s in spans[-2:]
            if any(n.startswith("crash=") for n in s["notes"])
        ]
        assert crash_tail
        crash_index = min(
            i for i, s in enumerate(spans)
            if any(n.startswith("crash=") for n in s["notes"])
        )
        assert crash_index >= 100
        # The injected fault's marker span is in the ring too.
        assert any(s["kind"] == "fault" for s in spans)

    def test_payload_schema(self, quick_run):
        runner, result = quick_run
        assert result["schema"] == SCHEMA == "swm-soak/1"
        assert result["seed"] == SEED
        assert "--seed" in result["replay"]
        totals = result["totals"]
        assert set(totals) >= {
            "steps", "requests", "oracle_checks", "crashes", "restarts",
            "checkpoint_saves", "span_count", "signature", "flight_dumps",
            "wall_s",
        }
        assert totals["checkpoint_saves"] == runner.store.saves > 0
        json.dumps(result)  # exportable as-is

    def test_write_exports_json(self, quick_run, tmp_path):
        runner, result = quick_run
        path = runner.write(str(tmp_path / "BENCH_soak.json"))
        assert json.load(open(path))["totals"] == result["totals"]


class TestDeterminism:
    def _signature(self, seed, tmp_path, tag):
        runner = SoakRunner(
            seed, "quick", store_dir=str(tmp_path / f"store-{tag}")
        )
        try:
            result = runner.run()
        finally:
            runner.close()
        totals = result["totals"]
        return (
            totals["signature"], totals["span_count"], totals["requests"],
            [p["signature"] for p in result["phases"]],
        )

    def test_same_seed_bit_identical_span_sequence(self, tmp_path):
        first = self._signature(SEED, tmp_path, "a")
        second = self._signature(SEED, tmp_path, "b")
        assert first == second

    def test_different_seed_diverges(self, tmp_path):
        first = self._signature(SEED, tmp_path, "a2")
        other = self._signature(SEED + 1, tmp_path, "c")
        assert first[0] != other[0]

    def test_derive_seed_decorrelates_substreams(self):
        assert derive_seed(SEED, "soak-workload") != \
            derive_seed(SEED, "soak-fuzz")
        assert derive_seed(SEED, "x") == derive_seed(SEED, "x")


class TestRunSoak:
    def test_cli_driver_writes_payload(self, tmp_path):
        out = tmp_path / "BENCH_soak.json"
        code, result = run_soak(
            SEED, profile="quick",
            out=str(out),
            dump_dir=str(tmp_path / "dumps"),
            store_dir=str(tmp_path / "store"),
        )
        assert code == 0
        assert json.load(open(out))["schema"] == "swm-soak/1"
        assert result["totals"]["crash_storm"] is None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown soak profile"):
            SoakRunner(1, "nope")
