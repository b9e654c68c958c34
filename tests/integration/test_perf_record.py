"""BENCH_perfbench.json, the committed performance record: every row
carries, for each of its workloads, the four numbers a later guard
reads for every end-to-end metric that BENCHMARK.json names, and the
count signatures CI checks are pinned for every workload."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIELDS = ("parent_median", "change_median", "change_wins", "parent_iqr_over_median")


def load(name):
    with open(ROOT / name, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_row_records_every_end_to_end_metric():
    benchmark = load("BENCHMARK.json")
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    rows = load("BENCH_perfbench.json")["rows"]
    assert rows
    for row in rows:
        assert row["change"] and row["parent"], row
        assert row["workloads"], row["change"]
        for workload, record in row["workloads"].items():
            assert workload in workloads, (row["change"], workload)
            pairs = len(record["seeds"])
            assert pairs >= 1, (row["change"], workload)
            for metric in metrics:
                entry = record["metrics"][metric]
                where = (row["change"], workload, metric)
                assert set(FIELDS) <= set(entry), where
                assert all(isinstance(entry[field], (int, float)) for field in FIELDS), where
                assert 0 <= entry["change_wins"] <= pairs, where
                assert entry["parent_iqr_over_median"] >= 0, where


def test_count_signatures_pin_every_workload():
    benchmark = load("BENCHMARK.json")
    pinned = load("BENCH_perfbench.json")["count_signatures"]
    assert isinstance(pinned["seed"], int)
    for workload in benchmark["workloads"]:
        signature = pinned[workload["name"]]
        assert re.fullmatch(r"[0-9a-f]{16}", signature), workload["name"]
