"""Smoke check of the benchmark itself, at a tiny size.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository
root. Every workload runs untraced and traced; the check is that every
metric is printed by name with a unit, that the last line is the result
object ``BENCHMARK.json`` promises, and that the benchmark refuses to run
without the program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(run.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (m, u) for m, u in run.END_TO_END if m in run.GATED
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_report(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    for name, unit in run.END_TO_END:
        line = next(l for l in lines if l.split()[:1] == [name])
        assert f" {unit}" in line or "n/a" in line, line
    rate = next(l for l in lines if l.split()[:1] == ["failure_rate"])
    assert re.search(r"failure_rate\s+0 ratio", rate), rate
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_report(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(l.split()[:1] == ["trace.overhead_ratio"] for l in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
