"""The benchmark tracer wraps library functions by name, so every name
it lists must still exist; a deleted one would otherwise show only when
a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in tracer.BOUNDARIES
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert tracer.BOUNDARIES
    assert missing == []
