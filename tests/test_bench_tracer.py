"""The benchmark's tracer still finds every function it wraps.

A traced benchmark run refuses to start when a wrapped function has been
renamed or removed, or a listed per-layer metric is not computed; this
test fails the same way in the ordinary test run.  A refactor that routes
work around a wrapped function would instead zero its metric silently, so
a few small commands must reach every target.
"""

import importlib.util
import io
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


# Targets that no command reaches: `eventual_sign` has no caller in the
# package, and the boolean set operations no longer call `member`.
UNREACHED = {"exactnum.eventual_sign", "sets_filters.member"}

COMMANDS = [
    ["eval", "invert(n*n - 3*n + 2 except {1: 1, 2: 1}) * ind(0 mod 2)"],
    ["eval", "le(n, 10)"],
    ["eval", "le(n, 10)", "--filter=principal:{1,2}"],
    ["eval", "st(invert(n + 1) + 3)"],
    ["eq", "n*n", "n*n except {3: 0}"],
    ["sum", "n except {2: 0}"],
    ["check", "all", "--kmax", "10"],
    ["oracle", "--lambda", "2", "--field", "2"],
]


def test_small_commands_reach_every_target():
    tracer = _load_tracer().Tracer()
    try:
        assert tracer.install(gscalars) == []
        for argv in COMMANDS:
            assert gscalars.cli.main(argv, out=io.StringIO()) == 0, argv
    finally:
        tracer.remove()
    unreached = {name for name, calls in zip(tracer.names, tracer.calls) if calls == 0}
    assert unreached == UNREACHED
