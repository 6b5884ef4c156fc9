"""One workload process: build the inputs from the seed, print READY, then either
stop (a set-up sample), time passes with tracing off, or make the traced run.
The last line of its output is one JSON object for run.py.

run.py starts it with `src` on PYTHONPATH; see README.md.
"""

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calib

MIN_PASSES = 3
PROBLEMS_KEPT = 20


def measure(inputs, checker, seconds):
    """Untraced passes until `seconds` have passed. A pass's time is the time of
    its program calls, in reference seconds (see calib.py) and in host seconds."""
    reference = []
    host = []
    attempted = failed = passes = 0
    result = None
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        passes += 1
        gc.collect()
        clock = calib.Clock(inputs.workload in calib.SCANNING)
        try:
            result = workloads.run_pass(inputs, clock.call)
        except Exception:  # the whole pass failed: every op it holds failed
            traceback.print_exc(file=sys.stderr)
            ops = len(inputs.configs) or 1
            attempted += ops
            failed += ops
            continue
        clock.flush()
        reference.append(clock.reference)
        host.append(clock.host)
        attempted += len(result.ops)
        failed += checker.check(result)
    return {
        "pass_s": reference,
        "pass_host_s": host,
        "events_per_pass": result.events if result else 0,
        "queries_per_pass": workloads.query_count(result) if result else 0,
        "report_sha256": hashlib.sha256(result.output.encode()).hexdigest() if result else None,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("sweep", "uplift", "churn", "bayes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    # Set-up runs between two reference loops, whose time run.py takes back out.
    # The heavy modules are imported here, after the first loop, because
    # importing cachelab is part of set-up.
    before = calib.reference_loop()
    global layers, numpy, workloads
    import numpy
    import layers
    import workloads
    inputs = workloads.build_inputs(args.workload, args.seed, args.scale)
    print(f"READY {before} {calib.reference_loop()}", flush=True)
    if args.mode == "setup":
        return 0

    checker = workloads.Checker(inputs, inject_fault=args.inject_fault)
    if args.mode == "measure":
        out = measure(inputs, checker, args.seconds)
    else:
        out = layers.trace_run(inputs, checker, args.seconds, args.out_dir)
    out["problems"] = (out.get("problems", []) + checker.problems)[:PROBLEMS_KEPT]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["python"] = sys.version.split()[0]
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
