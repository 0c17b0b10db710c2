"""gscalars benchmark: one closed-loop client calling the library in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload queries|suites|oracle --seed N --seconds S --trace 0|1

Without --workload (or with --workload all) it runs the three workloads in
turn and the last line maps each to its result.  Each run starts a worker
process (bench/worker.py) for the workload; the worker caps its address
space and limits each op's wall time, so a runaway op fails instead of
stalling the run.  With --trace 0 the last stdout line holds the
end-to-end metrics; setup_s is the median of the set-up times the worker
took (its own and those of the set-up-only copies it starts through the
run).  With --trace 1 it holds the per-layer metrics of a traced run.  The
exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("queries", "suites", "oracle")
TIME_LIMIT_S = 170  # a run that is not done by then is killed and fails
DEFAULT_SEED = 1729

sys.path.insert(0, str(BENCH))
from tracer import LAYERS, PER_LAYER  # noqa: E402
from worker import percentile  # noqa: E402


def start_worker(args, workload: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args, workload: str) -> dict | None:
    """One run of one workload: print its metrics, return the result object."""
    try:
        run = start_worker(args, workload)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return None

    latencies = sorted(run["latencies"])
    attempted, failed = len(latencies), len(run["failures"])
    correct = failed == 0 and "MISMATCH" not in run["digest"]
    print(f"digest {run['digest']}")
    if args.trace:
        metrics = {name: {"value": run["per_layer"][name], "unit": unit} for name, unit in PER_LAYER}
        shown = ["trace.wall_s", "harness.self_s", *[f"{layer}.self_s" for layer in LAYERS], "trace.overhead_ratio"]
        for name in shown:
            print(f"{name:28s} {run['per_layer'][name]:.4f}")
    else:
        values = {
            "ops_per_s": (attempted / sum(latencies), "1/s"),
            "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
            "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(run["setup_samples"]), "s"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
        for name, (value, unit) in values.items():
            print(f"{name:12s} {value:.6g} {unit}")
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in run["setup_samples"]))
        print(f"op latency samples: {attempted}; fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gscalars" / "__init__.py").is_file():
        print(f"no gscalars sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = measure(args, args.workload)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        results[workload] = measure(args, workload)
    print(json.dumps(results))
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
