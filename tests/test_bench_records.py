"""Every performance record ``BENCH_*.json`` at the repository root fits the benchmark in ``BENCHMARK.json``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_the_root_holds_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
class TestBenchRecord:
    def test_parses_as_an_object(self, path):
        assert isinstance(load(path), dict)

    def test_claims_an_end_to_end_metric_of_a_workload(self, path):
        record = load(path)
        claimed = record["claimed"]
        assert claimed["workload"] in WORKLOADS
        assert claimed["metric"] in END_TO_END
        assert claimed["workload"] in record["summary"]

    def test_each_summary_workload_reports_every_end_to_end_metric(self, path):
        summary = load(path)["summary"]
        assert summary and set(summary) <= WORKLOADS
        for workload, entry in summary.items():
            missing = END_TO_END.difference(entry["metrics"])
            assert not missing, f"{workload} lacks {sorted(missing)}"
