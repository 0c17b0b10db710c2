"""One workload run in its own process; `run.py` starts it.

The process caps its own address space, imports gscalars from the
checkout's `src`, builds the workload's ops from the seed (set-up), then
runs ops one after another until their summed latency reaches the run
length.  Each op has a wall-clock limit; an op that exceeds it, runs out
of memory, raises, or returns a wrong output counts as failed.

Set-up is timed from the first line of this script to the first op ready,
here and in SETUP_PROBES set-up-only copies of this process started at
even steps of the run (outside the timed ops), so that the median set-up
time samples the same stretch of machine time as the ops do.  With
--trace 1 the ops run with every layer wrapped, and some of them are run
again, untraced and traced in turn, to measure the tracing overhead.  The
result is one JSON line on stdout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from the first line of this script

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ADDRESS_SPACE_BYTES = 1 << 30
OP_LIMIT_S = 20.0
DIGEST_OPS = 100
SETUP_PROBES = 6

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


class OpTimeout(BaseException):
    """Raised from SIGALRM when an op exceeds its wall-clock limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_ops(source, seconds: float, tracer=None, ops: range | None = None, between=None):
    """Run ops from the first until their summed latency reaches `seconds`
    and a whole number of the source's cycles is done, or exactly `ops`.
    `between(busy)` is called after each op with the summed latency so far.

    Returns per-op latencies, outputs and failure kinds (None when correct)."""
    latencies, outputs, failures = [], [], []
    busy = 0.0
    i = 0 if ops is None else ops.start
    while (busy < seconds or i % source.cycle) if ops is None else (i < ops.stop):
        op = source.op(i)
        if tracer is not None:
            tracer.op = i
        out, failure = "", None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            failure = "timeout"
        except MemoryError:
            failure = "memory"
        except Exception as exc:  # any other error is a failed op, not a crashed run
            failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if failure is None and not op.check(out):
            failure = "wrong output"
        if failure is not None:
            print(f"FAILED op {i} [{op.label}]: {failure}\n{out}", file=sys.stderr)
            if tracer is not None:
                tracer.abandon()
        latencies.append(elapsed)
        outputs.append(f"{op.label}\n{out}")
        failures.append(failure)
        busy += elapsed
        i += 1
        if between is not None:
            between(busy)
    return latencies, outputs, failures


def overhead_ratio(gs, source, latencies: list[float]) -> float:
    """Traced over untraced time of the ops that filled the first tenth of
    the traced run, run again in alternating untraced and traced chunks of
    about a quarter second, so that drift in machine speed cancels."""
    from tracer import Tracer

    traced = plain = 0.0
    first = 0
    while first < len(latencies) and traced < sum(latencies) / 10:
        last, chunk = first, 0.0
        while last < len(latencies) and chunk < 0.25:
            chunk += latencies[last]
            last += 1
        plain += sum(run_ops(source, 0.0, ops=range(first, last))[0])
        shadow = Tracer()
        shadow.install(gs)
        traced += sum(run_ops(source, 0.0, tracer=shadow, ops=range(first, last))[0])
        shadow.remove()
        first = last
    return traced / plain


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh set-up-only copy of this process."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=60).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def check_digest(workload: str, seed: int, outputs: list[str]) -> str:
    """Digest of the first outputs, compared with every earlier run of this
    workload and seed in this checkout; the text says MISMATCH if it differs."""
    digest = hashlib.sha256("\n".join(outputs[:DIGEST_OPS]).encode()).hexdigest()[:16]
    key = f"{workload} seed={seed} ops={min(DIGEST_OPS, len(outputs))}"
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    previous = known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return f"{key}: {digest}" + ("" if previous == digest else f" MISMATCH, earlier {previous}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    signal.signal(signal.SIGALRM, _alarm)

    sys.path.insert(0, str(ROOT / "src"))
    import gscalars
    import gscalars.cli
    import workloads

    if not Path(gscalars.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gscalars imported from {gscalars.__file__}, not from this checkout", file=sys.stderr)
        return 2
    source = workloads.SOURCES[args.workload](gscalars, args.seed)
    setups = [time.perf_counter() - STARTED]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install(gscalars) + tracer.unknown_metrics()
        if missing:
            # A lost target must fail the run, not report its metrics as 0.
            print(f"cannot trace this version, missing: {', '.join(missing)}", file=sys.stderr)
            return 3
    marks = [] if args.trace else [args.seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]

    def probe(busy):
        while marks and busy >= marks[0]:
            marks.pop(0)
            setups.append(probe_setup(args.workload, args.seed))

    latencies, outputs, failures = run_ops(source, args.seconds, tracer, between=probe)
    result = {
        "setup_samples": setups,
        "latencies": latencies,
        "failures": [f for f in failures if f is not None],
        "digest": check_digest(args.workload, args.seed, outputs),
    }
    if tracer is not None:
        tracer.remove()
        result["per_layer"] = tracer.metrics(sum(latencies), overhead_ratio(gscalars, source, latencies))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv.gz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
