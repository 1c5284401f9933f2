"""Benchmark tooling that the test suite can check without running it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_attributes_resolve():
    # The traced benchmark pass wraps these module attributes; a refactor that
    # drops one would otherwise fail only when that pass runs.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []
