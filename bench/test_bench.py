"""Smoke tests for the benchmark: every workload at minimal size on one seed,
in both modes, must verify every item and emit exactly the metrics that
BENCHMARK.json declares, with their units.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    result = json.loads(_run("--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--quick")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True   # fail_frac == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_compare_prints_a_row_per_workload_and_metric(tmp_path):
    lines = _run("--workload", "cayley", "--seed", "2", "--seconds", "1", "--quick")
    path = tmp_path / "a.jsonl"
    path.write_text(json.dumps({"workload": "cayley", "machine": {},
                                **json.loads(lines[-1])}) + "\n")
    rows = _run("--compare", str(path), str(path))
    for m in SPEC["end_to_end"]:
        assert any(r.split()[:2] == ["cayley", m["name"]] and r.endswith("+0.00%")
                   for r in rows), m["name"]


def test_fails_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cayley",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode != 0 and proc.stdout == ""
