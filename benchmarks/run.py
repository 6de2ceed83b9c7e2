"""Benchmark of outerspacekit: four seeded workloads, each in fresh processes.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] --seconds S [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
`src/`. Every child process gets one thread for numpy/BLAS. With
`--trace 0` it prints the end-to-end metrics of untraced runs; with
`--trace 1` the per-layer metrics of a traced run and its overhead against
an untraced run of the same operations. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# the same names as workloads.NAMES, which this process does not import: it
# must not load the library it measures
WORKLOADS = ("certify", "distances", "axes", "laminations")
SETUP_SAMPLES = 4  # fresh processes whose set-up times give the median setup_s
WORKLOAD_BUDGET_S = 170  # all processes of one workload end within this

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("correct_ratio", "ratio"),
    ("converged_ratio", "ratio"),
)


class BenchmarkError(RuntimeError):
    pass


def child(workload, seed, seconds, mode, deadline):
    """Run child.py in a fresh single-threaded process; return its JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1")
    argv = [sys.executable, os.path.join(BENCH, "child.py"), workload, str(seed),
            str(seconds), mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} ran past its {WORKLOAD_BUDGET_S} s budget")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} run failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload, seed, seconds):
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = [child(workload, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = child(workload, seed, seconds, "measure", deadline)
    setups.append(run["setup_s"])
    lat = run["latencies_ms"]
    n = run["ops"]
    metrics = {
        "ops_per_s": n / (sum(lat) / 1000.0),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ratio": (n - len(run["errors"])) / n,
        "correct_ratio": (n - run["failed"]) / n,
        # a workload that makes no lamination estimate has none unconverged
        "converged_ratio": run["converged"] / run["estimates"] if run["estimates"] else 1.0,
    }
    return run, metrics


def traced(workload, seed, seconds):
    run = child(workload, seed, seconds, "trace", time.monotonic() + WORKLOAD_BUDGET_S)
    metrics = dict(run["layers"])
    metrics["trace.overhead_ratio"] = run["traced_s"] / run["untraced_s"]
    return run, metrics


def report(workload, run, metrics, units):
    n = run["ops"]
    print(f"== {workload}: {n} ops x {run['passes']} passes; op times are medians scaled "
          f"to the calibration loop: {sum(run['latencies_ms']) / 1000.0:.2f} s a pass, "
          f"{run['raw_s']:.1f} s raw in all")
    for name, value in metrics.items():
        print(f"  {name:58s} {value:14.6g} {units[name]}")
    errors = len(run["errors"])
    unconverged = run["estimates"] - run["converged"]
    print(f"  error_rate {errors / n:.4g} ({errors}/{n})  wrong_rate {run['wrong'] / n:.4g} "
          f"({run['wrong']}/{n})  unconverged_rate "
          f"{unconverged / run['estimates'] if run['estimates'] else 0.0:.4g} "
          f"({unconverged}/{run['estimates']} estimates)")
    for e in run["errors"][:5]:
        print(f"  error: {e}")
    for e in run["check_errors"][:5]:
        print(f"  wrong: {e}")
    by_kind = {}
    for kind, ms in zip(run["kinds"], run["latencies_ms"]):
        by_kind.setdefault(kind, []).append(ms)
    print(f"  {'op kind':24s} {'count':>6s} {'median ms':>10s} {'max ms':>10s}")
    for kind in sorted(by_kind):
        v = by_kind[kind]
        print(f"  {kind:24s} {len(v):6d} {statistics.median(v):10.3f} {max(v):10.3f}")
    if "spans_file" in run:
        print(f"  spans written to {run['spans_file']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True,
                   help="seconds of timed op time per workload (run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "outerspacekit", "__init__.py")):
        print(f"error: no outerspacekit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.trace:
        from spans import metric_names

        units = dict(metric_names())
    else:
        units = dict(END_TO_END)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    all_metrics = {}
    try:
        for w in names:
            run, metrics = (traced if args.trace else end_to_end)(w, args.seed, args.seconds)
            report(w, run, metrics, units)
            attempted += run["ops"]
            failed += run["failed"]
            prefix = "" if len(names) == 1 else f"{w}."
            for k, v in metrics.items():
                all_metrics[prefix + k] = {"value": v, "unit": units[k]}
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
