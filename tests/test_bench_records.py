"""Every committed benchmark record BENCH_<n>.json parses and speaks the
vocabulary of BENCHMARK.json: its workloads, its end-to-end metrics (in the
per-workload medians, the held-out runs and the claim) and, in the traced
per-layer figures, its per-layer metrics."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
TRACE_KEY = re.compile(r"trace_(\w+)_seed\d+")


def test_records_are_committed():
    assert RECORDS
    assert all(re.fullmatch(r"BENCH_\d+\.json", path.name) for path in RECORDS)


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    assert set(record["workloads"]) <= WORKLOADS
    for runs in record["workloads"].values():
        assert set(runs["metrics"]) <= END_TO_END
        held = runs.get("held_out")
        if held is not None:
            for side in ("parent", "change"):
                assert set(held[side]) - {"items_timed"} <= END_TO_END
    claim = record["claim"]
    if claim is not None:
        assert claim["workload"] in WORKLOADS
        assert claim["metric"] in END_TO_END
    for key, sides in record.items():
        match = TRACE_KEY.fullmatch(key)
        if match:
            assert match.group(1) in WORKLOADS
            for figures in sides.values():
                assert set(figures) <= PER_LAYER
