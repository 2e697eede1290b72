"""Checks on the committed benchmark records (``BENCH_*.json``).

Each record compares one change with its parent commit on the workloads
``BENCHMARK.json`` declares.  These tests keep every record readable and
comparable with the others: where and how it was measured, against which
commit, and each end-to-end metric's median on both sides.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_complete(path):
    record = json.loads(path.read_text())
    for key in ("environment", "command", "method", "parent"):
        assert isinstance(record.get(key), str) and record[key].strip(), key
    # Timings from a shared host say so: they drift with other tenants' load.
    assert "shared" in record["environment"] and "VM" in record["environment"]
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"])
    assert record["workloads"]
    for key, workload in record["workloads"].items():
        match = re.fullmatch(r"(\w+)_seed(\d+)", key)
        assert match and match[1] in WORKLOADS, key
        assert workload["metrics"], key
        for name, metric in workload["metrics"].items():
            assert name in END_TO_END, (key, name)
            for side in ("parent", "change"):
                median = metric[side]["median"]
                assert isinstance(median, (int, float)) and not isinstance(median, bool), \
                    (key, name, side)
