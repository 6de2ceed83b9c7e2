"""Run one workload in this fresh process and print its raw figures as JSON.

Started by run.py, never imported. The set-up clock starts before
`outerspacekit` is imported, so set-up time covers the import, input
generation, certification and warm-up.

    python3 child.py <workload> <seed> <seconds> <setup|measure|trace>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import inputs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


MIN_PASSES = 3
# A fixed pure-Python calibration loop from the benchmark's own code. Its
# time, taken next to each op, tells how fast the machine runs at that
# moment: on a shared machine other tenants slow everything down by up to
# 2x for seconds to minutes. Op times are reported scaled to a machine on
# which the loop takes CAL_REF_MS; on the 2-vCPU x86 VM this was tuned on it
# takes 1.3-3 ms.
CAL_REF_MS = 1.0
CAL_EVERY_S = 0.05
_CAL_AUT = inputs.random_automorphism(4, random.Random(5), 6)


def calibrate():
    t = time.perf_counter()
    w = (1,)
    for _ in range(8):
        w = inputs.apply(_CAL_AUT, w + (2, -3))[:400]
    return (time.perf_counter() - t) * 1000.0


# set-up is scaled by the calibration at both of its ends
CAL_AT_START = statistics.median(calibrate() for _ in range(5))

import workloads  # noqa: E402  (imports outerspacekit)
from spans import Tracer  # noqa: E402


def run_ops(ops, seconds, tracer=None):
    """Closed loop with one client, one op at a time, in passes.

    Each pass runs every op once, in an order of its own. There are at
    least MIN_PASSES passes, more if they fit `seconds` of op time at the
    speed of the first. Only `op.run()` is timed. Each sample is scaled by
    CAL_REF_MS over the calibration time around it (the mean of the
    medians of the last three calibrations before and after the op), and an
    op's time is the median of its scaled samples. The first output of each
    op is checked right after it; later ones are dropped.

    With a tracer, one pass runs each op untraced and then traced, so the
    two raw times of an op are taken a moment apart.
    """
    clock = time.perf_counter
    n = len(ops)
    samples = [[] for _ in range(n)]
    errors = [None] * n
    wrong = [False] * n
    converged = [None] * n
    check_errors = []
    untraced = traced = raw_total = 0.0
    cals = [calibrate() for _ in range(3)]
    cal_at = clock()
    passes = 1 if tracer else MIN_PASSES
    p = 0
    while p < passes:
        order = list(range(n))
        random.Random(p).shuffle(order)
        busy = 0.0
        for i in order:
            op = ops[i]
            if clock() - cal_at > CAL_EVERY_S:
                cals = cals[1:] + [calibrate()]
                cal_at = clock()
            cal_before = statistics.median(cals)
            if tracer:
                t = clock()
                _call(op)
                untraced += clock() - t
                tracer.on = True
            t = clock()
            out, err = _call(op)
            dt = clock() - t
            if tracer:
                tracer.on = False
                traced += dt
            busy += dt
            raw_total += dt
            if clock() - cal_at > CAL_EVERY_S:
                cals = cals[1:] + [calibrate()]
                cal_at = clock()
            cal = (cal_before + statistics.median(cals)) / 2.0
            samples[i].append(dt * CAL_REF_MS / cal)
            if err is not None:
                errors[i] = errors[i] or err
            elif p == 0:
                wrong[i], converged[i], msg = _check(op, out)
                if msg:
                    check_errors.append(msg)
        if p == 0 and not tracer:
            passes = max(MIN_PASSES, round(seconds / busy))
        p += 1
    flags = [f for fs in converged if fs for f in fs]
    return {"ops": n, "passes": passes,
            "latencies_ms": [statistics.median(s) * 1000.0 for s in samples],
            "raw_s": raw_total,
            "kinds": [op.kind for op in ops], "errors": [e for e in errors if e],
            "check_errors": check_errors,
            "wrong": sum(wrong), "failed": sum(bool(e) or w for e, w in zip(errors, wrong)),
            "estimates": len(flags), "converged": sum(flags),
            "untraced_s": untraced, "traced_s": traced}


def _call(op):
    try:
        return op.run(), None
    except Exception as e:  # an op that raises counts as an error; the run goes on
        return None, f"{op.kind}: {type(e).__name__}: {e}"


def _check(op, out):
    """(wrong, convergence flags or None, message or None) for one output.

    A check that raises, say on output in a format it does not expect,
    marks the op wrong and the run goes on.
    """
    try:
        wrong = not op.check(out)
        return wrong, op.estimates(out) if op.estimates else None, None
    except Exception as e:
        return True, None, f"{op.kind}: check raised {type(e).__name__}: {e}"


def main(argv):
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    logging.getLogger("outerspacekit").setLevel(logging.ERROR)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmpdir:
        ops = workloads.build(name, seed, tmpdir)
        setup_raw = time.perf_counter() - T0
        cal = (CAL_AT_START + statistics.median(calibrate() for _ in range(5))) / 2.0
        result = {"setup_s": setup_raw * CAL_REF_MS / cal}
        if mode == "setup":
            print(json.dumps(result))
            return 0
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        result.update(run_ops(ops, seconds, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["layers"] = {k: v for k, (v, _) in tracer.summary(result["traced_s"]).items()}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json.gz")
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
