"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py --seeds 0-9 --seconds 15
    python3 perfbench/record.py --seeds 0-9 --seconds 15 --traced-seed 0 \
        --trajectory "seed commit"

For each workload and seed it runs run.py once with tracing off and prints, per
end-to-end metric, the median, the quartiles and their spread ((q3 - q1) /
median, the figure the bounds in BENCHMARK.json are judged against). With
--traced-seed it also makes one traced run per workload. With --trajectory it
appends the summary, under that label, to perfbench/trajectory.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "uplift", "churn", "bayes")


def seed_list(text):
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" /
                         f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record["provenance"]


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--trajectory", metavar="LABEL", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    provenance = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, provenance = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- spread above bound/3"
            print(f"  {workload:7s} {name:14s} median {stats['median']:.6g} {stats['unit']} "
                  f"spread {stats['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        if args.traced_seed is not None:
            result, _ = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_seed"] = args.traced_seed
            entry["correct"] = entry["correct"] and result["correct"]
        summary[workload] = entry

    out = {"label": args.trajectory, "recorded_utc":
           datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "seconds": args.seconds, "provenance": provenance, "workloads": summary}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "summary.json").write_text(json.dumps(out, indent=1) + "\n")
    if args.trajectory:
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
