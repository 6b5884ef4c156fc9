"""cachelab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 15 --trace 0

Run from the repository root. With --trace 0 it times the workload end to end
with tracing off; with --trace 1 it makes the separate traced run that gives
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A result file with the provenance of the run is written under perfbench/out/.

This process does not import cachelab. Each sample runs in a fresh workload
process (bench.py), so one workload never warms another up.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("sweep", "uplift", "churn", "bayes")
# set-up is timed in this many fresh processes that stop once set up
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
# one thread per process: numpy's BLAS pool would otherwise start one per core
ENV_FIXED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **ENV_FIXED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(args, mode):
    """Start bench.py and wait for its READY line, which ends its set-up."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--scale", args.scale, "--out-dir", str(OUT_DIR)]
    if args.inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    ready = proc.stdout.readline().split()
    if ready[:1] != ["READY"]:
        finish(proc)
        raise BenchError(f"{args.workload} {mode}: workload process failed during set-up")
    return proc, [float(t) for t in ready[1:]]


def setup_sample(args):
    """One set-up of a fresh workload process (interpreter start, imports, input
    generation), as (reference seconds, host seconds). The process runs a
    reference loop before its imports and after its inputs are built; their
    time is taken out and their speed gives the scale."""
    t0 = time.perf_counter()
    proc, (before, after) = start_child(args, "setup")
    host = time.perf_counter() - t0 - before - after
    finish(proc)
    return host * calib.scale(before, after), host


def finish(proc):
    """Wait for a workload process; return its stdout. Kills it after the timeout."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return out


def timing(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    high = {"p_high": None, "p_high_pct": None}
    if n >= 20:  # below that, the percentile would not lie above the median
        high = {"p_high": ordered[n - 11], "p_high_pct": round(100.0 * (n - 10) / n, 1)}
    return {"median": statistics.median(ordered), **high, "n": n}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit_hash():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over src/ file paths and contents: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(measured, setups):
    """Times are in reference seconds (calib.py); the host-second figures go
    beside them in the detail."""
    wall = statistics.median(measured["pass_s"])
    values = {
        "wall_s": wall,
        "events_per_s": measured["events_per_pass"] / wall,
        "queries_per_s": measured["queries_per_pass"] / wall,
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(s for s, _ in setups),
    }
    detail = {"wall_s": timing(measured["pass_s"]),
              "wall_host_s": timing(measured["pass_host_s"]),
              "setup_s": timing([s for s, _ in setups]),
              "setup_host_s": timing([h for _, h in setups])}
    return values, detail


def run(args):
    if not (ROOT / "src" / "cachelab" / "__init__.py").is_file():
        raise BenchError(f"no cachelab sources under {ROOT / 'src'}")
    e2e_specs, layer_specs = load_metric_specs()
    OUT_DIR.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")

    setups = [] if args.trace else [setup_sample(args) for _ in range(SETUP_SAMPLES)]
    proc, _ = start_child(args, "trace" if args.trace else "measure")
    child = json.loads(finish(proc).strip().splitlines()[-1])

    if args.trace:
        values, detail, specs = child["layer"], {}, layer_specs
    else:
        (values, detail), specs = end_to_end(child, setups), e2e_specs
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    attempted, failed = child["attempted"], child["failed"]
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "started_utc": started,
        "commit": commit_hash(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": child["python"], "numpy": child["numpy"],
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    record = {"provenance": provenance, "result": result, "timings": detail,
              "failed_ops_ratio": failed / attempted if attempted else 1.0,
              "workload_process": child}
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in child.get("problems", []):
        print(f"# check failed: {problem}")
    print(f"# failed_ops_ratio {record['failed_ops_ratio']:.6g} "
          f"({failed} of {attempted} ops); timings {json.dumps(detail)}")
    print(f"# provenance {json.dumps(provenance)}")
    print(f"# result file {path.relative_to(ROOT)}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one op's answer per pass (self-test of the checks)")
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
