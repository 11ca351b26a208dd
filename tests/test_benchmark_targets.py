"""The benchmark's tracer wraps library functions by dotted name at run time,
so renaming or deleting one of them breaks every traced benchmark run."""

import importlib
import importlib.util

from conftest import FIXTURES

TRACING = FIXTURES.parent / "perfbench" / "tracing.py"


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
