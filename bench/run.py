"""Benchmark launcher.

    python3 bench/run.py --workload prove --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  BLAS is pinned to one thread before
numpy loads, and the workload runs in this process on one thread.  The
package is imported from the checkout's src/ and nowhere else.  Stdout
ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1.  The lines before it report the seed, the machine and
the workload's own metrics.  Traced runs also write their spans to
bench/out/trace-<workload>.npz.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("prove", "eval-points", "model-io")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import pwmlp from this checkout's src/; None if it is not there."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import pwmlp
    except ImportError as exc:
        print("error: cannot import pwmlp from %s: %s" % (SRC_DIR, exc),
              file=sys.stderr)
        return None
    if Path(pwmlp.__file__).resolve().parent.parent != SRC_DIR:
        print("error: pwmlp was imported from %s, not from %s"
              % (pwmlp.__file__, SRC_DIR), file=sys.stderr)
        return None
    return pwmlp


def show(name, value, unit, note=""):
    print("  %-28s %14.6g %-6s %s" % (name, value, unit, note))


def main(argv=None):
    args = parse_args(argv)
    if import_package() is None:
        return 2
    import numpy as np

    import harness
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT_DIR)
    try:
        result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                             trace=bool(args.trace), workdir=workdir)
        own_metrics = result.workload.report(result.stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = result.end_to_end()
    stats = result.stats
    attempted, failed = result.attempted, result.failed

    blas = ", ".join("%s=%s" % (v, os.environ.get(v)) for v in BLAS_THREAD_VARS)
    print("pwmlp benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: nproc %d, %s, python %s, numpy %s, BLAS threads pinned (%s)"
          % (os.cpu_count(), platform.machine(), platform.python_version(),
             np.__version__, blas))
    print("closed loop, 1 caller: %d passes of %d calls, %d set-ups"
          % (stats.passes, stats.attempted // stats.passes, len(result.setup_s)))
    for phase in result.phases:
        for err in phase.errors:
            print("failure: " + err)
    print("end-to-end (untraced; CPU time, each call's median over %d passes):"
          % stats.passes)
    for name, (value, unit) in e2e.items():
        show(name, value, unit)
    print("workload:")
    for name, (value, unit) in own_metrics.items():
        show(name, value, unit)
    show("pass_wall_s", sum(stats.wall) / stats.passes, "s",
         "wall clock, mean over passes")
    show("max_dev_ratio", result.dev_ratio, "ratio", "worst deviation / contract tol")
    show("fail_ratio", failed / attempted, "ratio", "%d of %d" % (failed, attempted))

    if args.trace:
        metrics = result.layers
        print("per-layer (one traced set-up + one traced pass):")
        for name, (value, unit) in metrics.items():
            show(name, value, unit)
        result.tracer.save(OUT_DIR / ("trace-%s.npz" % args.workload))
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
