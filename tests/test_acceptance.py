"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import io
import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from cachelab.bayes import infer_enumeration, infer_variable_elimination, markov_blanket
from cachelab.cli import main
from cachelab.policies import POLICIES, CacheConfig, make_cache
from cachelab.preevict import PreEvictConfig, PreEvictingCache
from cachelab.prefetch import PredictorConfig, PrefetchConfig
from cachelab.simkit import RunConfig, compare, emit_report, run_sim
from cachelab.trace import Trace, TraceEvent, gen_markov_trace

from reference import ref_policy_run
from test_bayes import RAIN_GIVEN_WET, diamondish_net, random_net, sprinkler
from test_cli import GOLDEN_LRU_INPUT, GOLDEN_LRU_OUTPUT

SPRINKLER_NET = str(Path(__file__).parent / "data" / "sprinkler.json")

BELADY_STRING = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
FIFO_10 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3]
FIFO_20 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]

SWEEP_SEED = 600
SWEEP_KEYS = 2000
SWEEP_LEN = 600_000

UPLIFT_SEEDS = list(range(10))


def ok(number, message):
    print(f"ACCEPTANCE {number:02d} PASS — {message}")


def as_trace(keys):
    return Trace([TraceEvent(i, k) for i, k in enumerate(keys)])


def policy_counts(keys, capacity, policy):
    report = run_sim(as_trace(keys), RunConfig(cache=CacheConfig(capacity, policy),
                                               label=f"{policy}@{capacity}"))
    return report.demand_hits, report.demand_misses


def lru_sim_output(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["lru-sim"]) == 0
    return capsys.readouterr().out


def bayes_output(capsys, method, query, evidence=None):
    argv = ["bayes", "--net", SPRINKLER_NET, "--query", query, "--method", method]
    if evidence:
        argv += ["--evidence", evidence]
    assert main(argv) == 0
    return capsys.readouterr().out


def uplift_pair(seed):
    trace = gen_markov_trace(seed=seed, num_keys=500, length=80_000, determinism=0.9)
    base = run_sim(trace, RunConfig(cache=CacheConfig(32, "lru"), label="lru"))
    boosted = run_sim(trace, RunConfig(cache=CacheConfig(32, "lru"), label="lru+pgm",
                                       prefetch=PrefetchConfig(),
                                       predictor=PredictorConfig()))
    return base, boosted


@pytest.fixture(scope="module")
def sweep_trace():
    return gen_markov_trace(seed=SWEEP_SEED, num_keys=SWEEP_KEYS, length=SWEEP_LEN,
                            determinism=0.8)


def sweep_configs():
    return [RunConfig(cache=CacheConfig(k, policy), label=f"{policy}@{k}")
            for policy in POLICIES for k in (6, 32, 775)]


@pytest.fixture(scope="module")
def sweep_reports(sweep_trace):
    start = time.perf_counter()
    reports = compare(sweep_trace, sweep_configs())
    return reports, time.perf_counter() - start


def test_criterion_01_golden_lru_simulator(monkeypatch, capsys):
    start = time.perf_counter()
    out = lru_sim_output(monkeypatch, capsys, GOLDEN_LRU_INPUT)
    elapsed = time.perf_counter() - start
    assert out == GOLDEN_LRU_OUTPUT
    assert out.encode() == GOLDEN_LRU_OUTPUT.encode()
    assert elapsed < 1.0
    ok(1, f"lru-sim reproduces the golden table byte-for-byte in {elapsed:.3f}s")


def test_criterion_02_fifo_fault_counts():
    start = time.perf_counter()
    _, misses_20 = policy_counts(FIFO_20, 3, "fifo")
    _, misses_10 = policy_counts(FIFO_10, 3, "fifo")
    elapsed = time.perf_counter() - start
    assert misses_20 == 15  # classic count for the full 20-reference string
    assert misses_10 == 9   # its first ten accesses alone
    assert (ref_policy_run(FIFO_20, 3, "fifo")[1],
            ref_policy_run(FIFO_10, 3, "fifo")[1]) == (15, 9)
    assert elapsed < 1.0
    ok(2, f"fifo k=3 misses: 20-ref={misses_20}, 10-ref prefix={misses_10}")


def test_criterion_03_belady_anomaly_and_lru_monotone():
    _, fifo_k3 = policy_counts(BELADY_STRING, 3, "fifo")
    _, fifo_k4 = policy_counts(BELADY_STRING, 4, "fifo")
    assert (fifo_k3, fifo_k4) == (9, 10)
    lru_hits = [policy_counts(BELADY_STRING, k, "lru")[0] for k in (1, 2, 3, 4, 5)]
    assert lru_hits == sorted(lru_hits)
    assert policy_counts(BELADY_STRING, 4, "lru")[1] == 8
    ok(3, f"fifo misses {fifo_k3}->{fifo_k4} at k=3->4; lru hits monotone {lru_hits}")


def test_criterion_04_lru_stack_property():
    capacities = (2, 4, 8, 16, 32)
    for trial in range(100):
        rng = random.Random(10_000 + trial)
        keys = [rng.randrange(200) for _ in range(10_000)]
        caches = [make_cache(CacheConfig(k, "lru")) for k in capacities]
        hits = [0] * len(capacities)
        for seq, key in enumerate(keys):
            for i, cache in enumerate(caches):
                if cache.access(key, seq).hit:
                    hits[i] += 1
        assert hits == sorted(hits), f"trace {trial}: hits {hits} not monotone"
    ok(4, f"lru hits non-decreasing in k over 100 traces x {capacities}")


def test_criterion_05_inference_equivalence():
    start = time.perf_counter()
    rng = random.Random(555)
    checked = 0
    for _ in range(200):
        net = random_net(rng, rng.randrange(3, 7))
        names = list(net.variables)
        query = rng.choice(names)
        others = [n for n in names if n != query]
        evidence = {n: rng.randrange(2)
                    for n in rng.sample(others, rng.randrange(len(others) + 1))}
        expected = infer_enumeration(net, query, evidence)
        assert np.allclose(infer_variable_elimination(net, query, evidence),
                           expected, atol=1e-9)
        eliminable = [n for n in others if n not in evidence]
        for _ in range(5):
            order = eliminable[:]
            rng.shuffle(order)
            got = infer_variable_elimination(net, query, evidence, order=order)
            assert np.allclose(got, expected, atol=1e-9)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0
    ok(5, f"enumeration == variable elimination on 200 random nets in {elapsed:.2f}s")


def test_criterion_06_sprinkler_fixture(capsys):
    net = sprinkler()
    prior = infer_enumeration(net, "Rain", {})
    assert prior[0] == 0.2
    for infer in (infer_enumeration, infer_variable_elimination):
        posterior = infer(net, "Rain", {"WetGrass": 0})
        assert round(posterior[0], 6) == round(RAIN_GIVEN_WET, 6)
    enum_out = bayes_output(capsys, "enum", "Rain", "WetGrass=T")
    ve_out = bayes_output(capsys, "ve", "Rain", "WetGrass=T")
    assert enum_out == ve_out
    assert enum_out.startswith(f"T {RAIN_GIVEN_WET:.6f}\n")
    ok(6, f"P(Rain=T)=0.2 exactly; P(Rain=T|WetGrass=T)={RAIN_GIVEN_WET:.6f} both methods")


def test_criterion_07_markov_blanket():
    net = diamondish_net(seed=6)
    assert markov_blanket(net, "C") == {"A", "D", "E"}
    for a, d, e, b in itertools.product(range(2), repeat=4):
        blanket_ev = {"A": a, "D": d, "E": e}
        base = infer_enumeration(net, "C", blanket_ev)
        screened = infer_enumeration(net, "C", {**blanket_ev, "B": b})
        assert np.allclose(base, screened, atol=1e-9)
    ok(7, "blanket(C) = {A, D, E}; conditioning on it screens off B within 1e-9")


def test_criterion_08_prefetch_uplift():
    start = time.perf_counter()
    diffs = []
    for seed in UPLIFT_SEEDS:
        base, boosted = uplift_pair(seed)
        diff = boosted.hit_ratio - base.hit_ratio
        assert boosted.hit_ratio >= base.hit_ratio, f"seed {seed}: prefetch below baseline"
        diffs.append(diff)
    elapsed = time.perf_counter() - start
    assert min(diffs) >= 0.05, f"uplift {min(diffs):.4f} below 5 percentage points"
    assert elapsed < 10.0
    ok(8, f"lru+pgm uplift {100 * min(diffs):.1f}..{100 * max(diffs):.1f}pp "
          f"over 10 seeds in {elapsed:.2f}s")


def test_criterion_09_capacity_sweep_shape(sweep_reports):
    reports, elapsed = sweep_reports
    by_label = {r.label: r for r in reports}
    for policy in POLICIES:
        hits = [by_label[f"{policy}@{k}"].demand_hits for k in (6, 32, 775)]
        assert hits[0] <= hits[1] <= hits[2], f"{policy}: hits {hits} not monotone"
    assert elapsed < 30.0
    ok(9, f"hits at k=6 <= k=32 <= k=775 for all five policies ({elapsed:.1f}s sweep)")


def test_criterion_10_pre_eviction_contracts():
    rng = random.Random(77)
    for trial in range(50):
        keys = [rng.randrange(80) for _ in range(600)]
        policy = POLICIES[trial % len(POLICIES)]
        plain = make_cache(CacheConfig(6, policy))
        wrapped = PreEvictingCache(make_cache(CacheConfig(6, policy)), PreEvictConfig())
        for seq, key in enumerate(keys):
            assert plain.access(key, seq) == wrapped.access(key, seq)

    timer_init = 16
    wrapped = PreEvictingCache(make_cache(CacheConfig(8, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=timer_init))
    last_touch = {}
    rng = random.Random(78)
    for seq in range(5000):
        key = rng.randrange(120)
        for resident in wrapped.base.entries:
            assert seq - last_touch[resident] <= timer_init
        out = wrapped.access(key, seq)
        for gone in out.evicted:
            last_touch.pop(gone, None)
        last_touch[key] = seq

    halfway_cfg = PreEvictConfig(halfway_enabled=True, address_space_size=128)
    rng = random.Random(79)
    triggered = 0
    for policy in POLICIES:
        wrapped = PreEvictingCache(make_cache(CacheConfig(6, policy)), halfway_cfg)
        for seq in range(2000):
            key = rng.randrange(128)
            out = wrapped.access(key, seq)
            if not out.hit and key >= 64:
                triggered += 1
                assert all(k >= 64 for k in wrapped.base.entries)
    assert triggered > 0
    ok(10, "disabled wrapper == base on 50 traces; timer and halfway bounds hold")


def test_criterion_11_prefetch_bookkeeping():
    runs = [uplift_pair(0)[1]]
    rng = random.Random(91)
    for trial in range(8):
        keys = [rng.randrange(40) for _ in range(3000)]
        runs.append(run_sim(as_trace(keys), RunConfig(
            cache=CacheConfig(8, POLICIES[trial % len(POLICIES)]),
            prefetch=PrefetchConfig(top_k=1 + trial % 3, p_min=0.05),
            predictor=PredictorConfig(order=1 + trial % 2, alpha=0.5, min_support=1),
            label=f"r{trial}")))
    for report in runs:
        resolved = report.prefetch_useful + report.prefetch_useless + report.prefetch_harmful
        assert resolved == report.prefetch_issued
        assert 0.0 <= report.prefetch_coverage <= 100.0
        denom = report.prefetch_useful + report.demand_misses
        expected = 0.0 if denom == 0 else 100.0 * report.prefetch_useful / denom
        assert report.prefetch_coverage == pytest.approx(expected, abs=1e-12)
    ok(11, f"useful+useless+harmful == issued and coverage formula holds on {len(runs)} runs")


def test_criterion_12_determinism(sweep_trace, sweep_reports, monkeypatch, capsys):
    # repeat every report-producing acceptance run and compare emitted bytes
    assert lru_sim_output(monkeypatch, capsys, GOLDEN_LRU_INPUT) == \
        lru_sim_output(monkeypatch, capsys, GOLDEN_LRU_INPUT)

    fifo_runs = [run_sim(as_trace(FIFO_20), RunConfig(cache=CacheConfig(3, "fifo"),
                                                      label="fifo@3"))
                 for _ in range(2)]
    assert emit_report(fifo_runs[:1], "json") == emit_report(fifo_runs[1:], "json")

    belady = [emit_report([run_sim(as_trace(BELADY_STRING),
                                   RunConfig(cache=CacheConfig(k, "fifo"),
                                             label=f"fifo@{k}"))], "csv")
              for k in (3, 4)]
    assert belady == [emit_report([run_sim(as_trace(BELADY_STRING),
                                           RunConfig(cache=CacheConfig(k, "fifo"),
                                                     label=f"fifo@{k}"))], "csv")
                      for k in (3, 4)]

    for method in ("enum", "ve"):
        assert bayes_output(capsys, method, "Rain", "WetGrass=T") == \
            bayes_output(capsys, method, "Rain", "WetGrass=T")

    base_a, boosted_a = uplift_pair(0)
    base_b, boosted_b = uplift_pair(0)
    assert emit_report([base_a, boosted_a], "json") == emit_report([base_b, boosted_b], "json")

    again = compare(sweep_trace, sweep_configs())
    assert emit_report(again, "json") == emit_report(sweep_reports[0], "json")

    regenerated = gen_markov_trace(seed=SWEEP_SEED, num_keys=SWEEP_KEYS,
                                   length=SWEEP_LEN, determinism=0.8)
    assert regenerated.keys() == sweep_trace.keys()
    ok(12, "repeated acceptance runs emit byte-identical reports")
