"""The benchmark's worker calls library names on the ``causalid`` package and
its tracer wraps library functions by dotted name, both at run time, so
renaming or deleting one of them breaks every benchmark run."""

import importlib
import importlib.util
import re

import causalid
from conftest import FIXTURES

TRACING = FIXTURES.parent / "perfbench" / "tracing.py"
WORKER = FIXTURES.parent / "perfbench" / "worker.py"


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
