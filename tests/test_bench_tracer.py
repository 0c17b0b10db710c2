"""The benchmark's tracer still finds every function it wraps.

A traced benchmark run refuses to start when a wrapped function has been
renamed or removed, or a listed per-layer metric is not computed; this
test fails the same way in the ordinary test run.
"""

import importlib.util
from pathlib import Path

import gscalars
import gscalars.cli  # noqa: F401 (the tracer wraps cli.main)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_and_metric_is_found():
    tracer = _load_tracer().Tracer()
    try:
        missing = tracer.install(gscalars)
        assert missing == []
        assert tracer.unknown_metrics() == []
    finally:
        tracer.remove()
    assert gscalars.cli.main.__module__ == "gscalars.cli"
