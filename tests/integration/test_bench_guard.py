"""tools/bench_guard.py trajectory mode: the rolling ``--keep`` window
retains exactly the newest N dates, never silently erases history, and
rejects a window that would retain nothing (the old negated-keep slice
turned ``--keep 0`` into "delete every run")."""

import importlib.util
import json
import pathlib
import sys
from argparse import Namespace

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[2] / "tools"


def load_bench_guard():
    spec = importlib.util.spec_from_file_location(
        "bench_guard", TOOLS / "bench_guard.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_guard", module)
    spec.loader.exec_module(module)
    return module


bench_guard = load_bench_guard()


def results_file(tmp_path, mean=0.002):
    """A minimal pytest-benchmark JSON with the reference + one guard."""
    payload = {
        "benchmarks": [
            {
                "group": "t7",
                "name": bench_guard.REFERENCE,
                "stats": {"mean": 0.001},
            },
            {
                "group": "t7",
                "name": "test_t7_property_churn",
                "stats": {"mean": mean},
            },
        ]
    }
    path = tmp_path / "benchmark-results.json"
    path.write_text(json.dumps(payload))
    return str(path)


def trajectory_args(tmp_path, date, keep=90):
    return Namespace(
        results=results_file(tmp_path),
        trajectory=str(tmp_path / "BENCH_trajectory.json"),
        date=date,
        run_id="",
        keep=keep,
    )


def run_dates(tmp_path):
    with open(tmp_path / "BENCH_trajectory.json") as fh:
        return sorted(json.load(fh)["runs"])


class TestTrajectoryKeep:
    def test_window_keeps_the_newest_n_dates(self, tmp_path):
        for day in range(1, 6):
            args = trajectory_args(tmp_path, f"2026-08-{day:02d}", keep=3)
            assert bench_guard.cmd_trajectory(args) == 0
        assert run_dates(tmp_path) == [
            "2026-08-03", "2026-08-04", "2026-08-05"
        ]

    def test_under_capacity_prunes_nothing(self, tmp_path):
        for day in range(1, 4):
            args = trajectory_args(tmp_path, f"2026-08-{day:02d}", keep=90)
            bench_guard.cmd_trajectory(args)
        assert run_dates(tmp_path) == [
            "2026-08-01", "2026-08-02", "2026-08-03"
        ]

    def test_keep_one_is_a_single_run_window(self, tmp_path):
        for day in range(1, 4):
            args = trajectory_args(tmp_path, f"2026-08-{day:02d}", keep=1)
            bench_guard.cmd_trajectory(args)
        assert run_dates(tmp_path) == ["2026-08-03"]

    def test_same_day_rerun_overwrites_not_accumulates(self, tmp_path):
        for _ in range(2):
            args = trajectory_args(tmp_path, "2026-08-08", keep=3)
            bench_guard.cmd_trajectory(args)
        assert run_dates(tmp_path) == ["2026-08-08"]

    @pytest.mark.parametrize("keep", [0, -1, -90])
    def test_retain_nothing_is_rejected_not_erased(self, tmp_path, keep):
        good = trajectory_args(tmp_path, "2026-08-01", keep=90)
        bench_guard.cmd_trajectory(good)
        bad = trajectory_args(tmp_path, "2026-08-02", keep=keep)
        with pytest.raises(bench_guard.GuardError) as excinfo:
            bench_guard.cmd_trajectory(bad)
        assert excinfo.value.code == bench_guard.EXIT_BAD_INPUT
        # The refusal must leave the existing trajectory untouched.
        assert run_dates(tmp_path) == ["2026-08-01"]


ROOT = TOOLS.parent
METRICS = [metric["name"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def perfbench_line(correct=True, **values):
    """The final JSON line of ``run.py --workload all`` holding one
    stack_churn result; metrics not given read 100.0."""
    metrics = {name: {"value": 100.0, "unit": "us"} for name in METRICS}
    for name, value in values.items():
        metrics[name]["value"] = value
    return json.dumps({"stack_churn": {
        "correct": correct, "attempted": 10, "failed": 0, "metrics": metrics,
    }})


def record_args(tmp_path, parent, change, append="",
                claim="stack_churn:void_p50_us"):
    (tmp_path / "parent.jsonl").write_text("\n".join(parent) + "\n")
    (tmp_path / "change.jsonl").write_text("\n".join(change) + "\n")
    return Namespace(
        parent_runs=str(tmp_path / "parent.jsonl"),
        change_runs=str(tmp_path / "change.jsonl"),
        seeds=f"1-{len(parent)}",
        claim=claim,
        change="synthetic change",
        parent_commit="abc1234",
        benchmark=str(ROOT / "BENCHMARK.json"),
        append=append,
    )


class TestRecord:
    """`record` turns paired perfbench runs into a BENCH_perfbench.json
    row and judges it with BENCHMARK.json's directions and bounds."""

    PARENT_VOID = [300.0, 310.0, 305.0, 295.0, 302.0,
                   308.0, 299.0, 304.0, 306.0, 301.0]

    def test_a_clear_gain_is_recorded_and_appended(self, tmp_path):
        parent = [perfbench_line(void_p50_us=v) for v in self.PARENT_VOID]
        change = [perfbench_line(void_p50_us=v - 100) for v in self.PARENT_VOID]
        change[3] = perfbench_line(void_p50_us=400.0)  # one lost pair
        record = tmp_path / "BENCH_perfbench.json"
        record.write_text(json.dumps({"about": "x", "rows": []}))
        args = record_args(tmp_path, parent, change, append=str(record))
        assert bench_guard.cmd_record(args) == 0
        row = json.loads(record.read_text())["rows"][0]
        assert row["claimed"] == {"workload": "stack_churn",
                                  "metric": "void_p50_us"}
        entry = row["workloads"]["stack_churn"]
        assert entry["seeds"] == list(range(1, 11))
        void = entry["metrics"]["void_p50_us"]
        assert void["change_wins"] == 9
        assert void["parent_median"] == 303.0
        assert void["change_median"] == 204.5
        assert void["parent_iqr_over_median"] == round(
            (305.75 - 300.25) / 303.0, 4)
        # Ties win for neither side.
        assert entry["metrics"]["ops_per_s"]["change_wins"] == 0
        assert set(entry["metrics"]) == set(METRICS)

    def test_eight_of_ten_is_not_a_claimed_gain(self, tmp_path):
        parent = [perfbench_line(void_p50_us=v) for v in self.PARENT_VOID]
        change = [perfbench_line(void_p50_us=v - 100) for v in self.PARENT_VOID]
        change[0] = change[1] = perfbench_line(void_p50_us=500.0)
        record = tmp_path / "BENCH_perfbench.json"
        record.write_text(json.dumps({"about": "x", "rows": []}))
        args = record_args(tmp_path, parent, change, append=str(record))
        assert bench_guard.cmd_record(args) == bench_guard.EXIT_REGRESSION
        assert json.loads(record.read_text())["rows"] == []

    def test_another_metric_past_its_bound_fails(self, tmp_path):
        parent = [perfbench_line(void_p50_us=v) for v in self.PARENT_VOID]
        # peak_rss_mb's bound is 10%: +12% fails, ops_per_s -20% is
        # inside its 25%.
        change = [perfbench_line(void_p50_us=v - 100, peak_rss_mb=112.0,
                                 ops_per_s=80.0) for v in self.PARENT_VOID]
        args = record_args(tmp_path, parent, change)
        assert bench_guard.cmd_record(args) == bench_guard.EXIT_REGRESSION
        change = [perfbench_line(void_p50_us=v - 100, ops_per_s=80.0)
                  for v in self.PARENT_VOID]
        args = record_args(tmp_path, parent, change)
        assert bench_guard.cmd_record(args) == 0

    def test_an_incorrect_run_fails(self, tmp_path):
        parent = [perfbench_line(void_p50_us=v) for v in self.PARENT_VOID]
        change = [perfbench_line(void_p50_us=v - 100) for v in self.PARENT_VOID]
        change[5] = perfbench_line(correct=False, void_p50_us=200.0)
        args = record_args(tmp_path, parent, change)
        assert bench_guard.cmd_record(args) == bench_guard.EXIT_REGRESSION

    def test_unpaired_runs_are_bad_input(self, tmp_path):
        parent = [perfbench_line() for _ in range(3)]
        args = record_args(tmp_path, parent, parent[:2])
        args.seeds = "1-3"
        with pytest.raises(bench_guard.GuardError) as excinfo:
            bench_guard.cmd_record(args)
        assert excinfo.value.code == bench_guard.EXIT_BAD_INPUT


class TestRecordWithoutClaim:
    """Without ``--claim``, `record` judges a change that claims no
    gain: each metric against its bound and each run's correctness."""

    def test_within_bounds_passes(self, tmp_path):
        # ops_per_s -20% is inside its 25% bound.
        parent = [perfbench_line() for _ in range(10)]
        change = [perfbench_line(ops_per_s=80.0) for _ in range(10)]
        args = record_args(tmp_path, parent, change, claim="")
        assert bench_guard.cmd_record(args) == 0

    def test_one_metric_past_its_bound_fails(self, tmp_path):
        # peak_rss_mb's bound is 10%.
        parent = [perfbench_line() for _ in range(10)]
        change = [perfbench_line(peak_rss_mb=112.0) for _ in range(10)]
        args = record_args(tmp_path, parent, change, claim="")
        assert bench_guard.cmd_record(args) == bench_guard.EXIT_REGRESSION

    def test_append_is_refused(self, tmp_path):
        parent = [perfbench_line() for _ in range(10)]
        record = tmp_path / "BENCH_perfbench.json"
        record.write_text(json.dumps({"about": "x", "rows": []}))
        args = record_args(tmp_path, parent, parent, claim="",
                           append=str(record))
        with pytest.raises(bench_guard.GuardError) as excinfo:
            bench_guard.cmd_record(args)
        assert excinfo.value.code == bench_guard.EXIT_BAD_INPUT
        assert json.loads(record.read_text())["rows"] == []
