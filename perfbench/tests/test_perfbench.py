"""The benchmark's own tests. From the repository root:

    python3 -m pytest perfbench/tests -q

They run the workloads at the smoke scale, so they check that every metric is
produced with its unit and that the correctness checks bite, not how fast
anything is.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from cachelab import CacheConfig, PrefetchConfig, RunConfig, gen_markov_trace, run_sim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def smoke_args(workload, trace):
    return ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
            "--scale", "smoke"]


@pytest.fixture(scope="module")
def smoke():
    return {(w, t): result_of(run_bench(*smoke_args(w, t))) for w in WORKLOADS for t in (0, 1)}


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(smoke, workload, trace):
    result = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def interaction_map_metrics():
    """Metric names in the Metric column of README.md's interaction map: the
    quoted names that start with the row's layer."""
    text = (BENCH / "README.md").read_text()
    section = text.split("## Interaction map", 1)[1].split("\n## ", 1)[0]
    names = []
    for row in [r for r in section.splitlines() if r.startswith("|")][2:]:
        cells = row.split("|")
        layer_name = cells[1].strip()
        for token in re.findall(r"`([^`]+)`", cells[2]):
            if token.startswith(layer_name + "."):
                names.extend(token.replace("<p>", p) for p in
                             (["fifo", "lifo", "lru", "mru", "arc"] if "<p>" in token else [""]))
    return names


def test_interaction_map_names_only_existing_metrics():
    known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    names = interaction_map_metrics()
    assert len(names) > 40
    assert set(names) <= known, set(names) - known
    assert {m["name"] for m in SPEC["per_layer"]} <= set(names)


def layer(smoke, workload):
    return {k: v["value"] for k, v in smoke[workload, 1]["metrics"].items()}


def test_bypassed_layers_read_zero_work(smoke):
    sweep = layer(smoke, "sweep")
    for name in ("prefetch.issued", "prefetch.contexts", "prefetch.successor_entries",
                 "prefetch.useful_ratio", "prefetch.coverage_pct"):
        assert sweep[name] == 0, name
    for workload in ("sweep", "uplift"):
        for name in ("preevict.timer_evictions", "preevict.halfway_evictions"):
            assert layer(smoke, workload)[name] == 0, (workload, name)
    churn = layer(smoke, "churn")
    assert churn["preevict.timer_evictions"] > 0 and churn["preevict.halfway_evictions"] > 0
    assert layer(smoke, "uplift")["prefetch.issued"] > 0
    assert all(v == 0 for k, v in layer(smoke, "bayes").items() if k.endswith("evictions"))


def test_traced_run_emits_the_untraced_report(smoke):
    for workload in WORKLOADS:
        record = json.loads((BENCH / "out" / f"result-{workload}-seed1-trace1.json").read_text())
        assert record["workload_process"]["traced_report_identical"] is True
        assert (BENCH / "out" / record["workload_process"]["spans_file"]).is_file()


@pytest.mark.parametrize("workload", ["sweep", "bayes"])
def test_a_corrupted_report_counts_as_a_failed_op(workload):
    result = result_of(run_bench(*smoke_args(workload, 0), "--inject-fault"))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_check_report_catches_each_broken_identity():
    trace = gen_markov_trace(3, 50, 2000, 0.8)
    config = RunConfig(cache=CacheConfig(8, "lru"), prefetch=PrefetchConfig(), label="x")
    good = run_sim(trace, config)
    distinct = len({e.key for e in trace.events})
    assert workloads.check_report(good, config, len(trace), distinct) == []
    broken = [
        {"demand_hits": good.demand_hits + 1},
        {"prefetch_useful": good.prefetch_useful + 1},
        {"prefetch_coverage": good.prefetch_coverage + 1.0},
        {"timer_evictions": good.evictions + 1},
        {"evictions": good.evictions - 1},
    ]
    for change in broken:
        bad = dataclasses.replace(good, **change)
        assert workloads.check_report(bad, config, len(trace), distinct), change


def test_golden_reports_match_at_the_golden_seed():
    for workload in WORKLOADS:
        inputs = workloads.build_inputs(workload, workloads.GOLDEN_SEED)
        result = workloads.run_pass(inputs)
        assert result.output == (workloads.GOLDEN_DIR / f"{workload}.json").read_text()
        assert workloads.Checker(inputs).check(result) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run_bench(*smoke_args("sweep", 0), root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
