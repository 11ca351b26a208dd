"""The benchmark's worker calls library names on the ``causalid`` package and
its tracer wraps library functions by dotted name, both at run time, so
renaming or deleting one of them breaks every benchmark run."""

import importlib
import importlib.util
import json
import re
import subprocess
import sys

import pytest

import causalid
from conftest import FIXTURES

ROOT = FIXTURES.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKER = ROOT / "perfbench" / "worker.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_name_the_worker_calls_resolves():
    # the worker binds the imported package to ``cz``
    names = set(re.findall(r"\bcz\.([A-Za-z_]\w*)", WORKER.read_text()))
    assert names
    assert [n for n in sorted(names) if not hasattr(causalid, n)] == []


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for _, module, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_run_succeeds(workload):
    # a traced run wraps every tracer target and replays each operation
    # untraced; the harness exits 2 when a worker fails
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
