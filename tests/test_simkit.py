import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab.policies import POLICIES, CacheConfig
from cachelab.preevict import PreEvictConfig
from cachelab.prefetch import ON_MISS, PredictorConfig, PrefetchConfig
from cachelab.simkit import (
    REPORT_FIELDS,
    DuplicateLabel,
    RunConfig,
    SimReport,
    compare,
    emit_report,
    parse_report_csv,
    run_sim,
)
from cachelab.trace import Trace, TraceEvent, gen_markov_trace, parse_plain

from reference import ref_arc_run, ref_policy_run

REF_12 = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
REF_20 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]


def as_trace(keys):
    return Trace([TraceEvent(i, k) for i, k in enumerate(keys)])


def lru(k, label="run", **kwargs):
    return RunConfig(cache=CacheConfig(k, "lru"), label=label, **kwargs)


def pgm(top_k=1, p_min=0.1, trigger=None, order=1, alpha=1.0, min_support=2):
    kwargs = {} if trigger is None else {"trigger": trigger}
    return dict(prefetch=PrefetchConfig(top_k=top_k, p_min=p_min, **kwargs),
                predictor=PredictorConfig(order=order, alpha=alpha, min_support=min_support))


def test_run_sim_lru_reference_string():
    report = run_sim(as_trace(REF_12), lru(4))
    assert report.demand_misses == 8
    assert report.demand_hits == 4
    assert report.accesses == 12
    assert report.compulsory_misses == 5
    assert report.distinct_keys == 5
    assert report.hit_ratio == pytest.approx(4 / 12)


def test_run_sim_empty_trace():
    report = run_sim(as_trace([]), lru(4))
    assert report == SimReport("run", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0)


def test_run_sim_fifo_twenty_reference():
    report = run_sim(as_trace(REF_20), RunConfig(cache=CacheConfig(3, "fifo"), label="f"))
    assert report.demand_misses == 15


def test_conservation_all_policies():
    rng = random.Random(6)
    keys = [rng.randrange(64) for _ in range(3000)]
    for policy in POLICIES:
        report = run_sim(as_trace(keys), RunConfig(cache=CacheConfig(7, policy), label=policy))
        assert report.demand_hits + report.demand_misses == report.accesses == 3000
        assert report.compulsory_misses <= report.demand_misses
        assert report.compulsory_misses <= report.distinct_keys
        assert 0.0 <= report.hit_ratio <= 1.0


def test_prefetch_driver_hand_stepped_cycle():
    # cyclic 0 1 2 3 over LRU k=2; after warmup each access hits on the entry the
    # previous access prefetched; the final prefetch is pending at the end
    trace = as_trace([0, 1, 2, 3] * 4)
    report = run_sim(trace, lru(2, **pgm(alpha=0.0, min_support=1)))
    assert report.accesses == 16
    assert report.demand_hits == 11
    assert report.demand_misses == 5
    assert report.compulsory_misses == 4
    assert report.prefetch_issued == 12
    assert report.prefetch_useful == 11
    assert report.prefetch_useless == 1
    assert report.prefetch_harmful == 0
    assert report.evictions == 15
    assert report.prefetch_coverage == pytest.approx(100 * 11 / 16)
    assert report.distinct_keys == 4


def test_prefetch_driver_harmful_case():
    # prefetching 2 displaces 5, and 5 is demanded before 2 is touched; the final
    # access issues one more prefetch that is still pending at the end
    trace = as_trace([1, 2, 1, 5, 1, 5])
    report = run_sim(trace, lru(2, **pgm(alpha=0.0, min_support=1, p_min=0.0)))
    assert report.prefetch_issued == 2
    assert report.prefetch_harmful == 1
    assert report.prefetch_useful == 0
    assert report.prefetch_useless == 1
    assert (report.demand_hits, report.demand_misses) == (2, 4)


def test_prefetch_driver_useless_case():
    # prefetched 2 is evicted untouched by later demand inserts
    trace = as_trace([1, 2, 1, 5, 1, 6, 7])
    report = run_sim(trace, lru(2, **pgm(alpha=0.0, min_support=1, p_min=0.0)))
    assert report.prefetch_issued >= 1
    assert report.prefetch_useless >= 1
    assert report.prefetch_harmful == 0


def test_prefetch_bookkeeping_invariants_random():
    rng = random.Random(15)
    for trial in range(10):
        keys = [rng.randrange(30) for _ in range(2000)]
        report = run_sim(as_trace(keys), lru(8, **pgm(top_k=2, alpha=0.5, min_support=1)))
        total = report.prefetch_useful + report.prefetch_useless + report.prefetch_harmful
        assert total == report.prefetch_issued, trial
        assert 0.0 <= report.prefetch_coverage <= 100.0
        expected = (0.0 if report.prefetch_useful + report.demand_misses == 0 else
                    100.0 * report.prefetch_useful /
                    (report.prefetch_useful + report.demand_misses))
        assert report.prefetch_coverage == pytest.approx(expected)


def test_prefetch_disabled_equals_plain_run():
    keys = gen_markov_trace(seed=5, num_keys=40, length=4000, determinism=0.8)
    plain = run_sim(keys, lru(8, label="x"))
    wrapped = run_sim(keys, lru(8, label="x", pre=PreEvictConfig()))
    assert plain == wrapped


def test_prefetch_uplift_on_predictable_trace():
    trace = gen_markov_trace(seed=9, num_keys=200, length=20_000, determinism=0.9)
    base = run_sim(trace, lru(16, label="lru"))
    boosted = run_sim(trace, RunConfig(cache=CacheConfig(16, "lru"), label="lru+pgm",
                                       **pgm()))
    assert boosted.hit_ratio > base.hit_ratio


def test_perfect_prediction_after_one_cycle_of_warmup():
    # determinism=1.0 over 8 keys: the first cycle plus its first repeat access
    # (9 events) miss; after that the predictor is exact and every access hits
    # on the entry prefetched one step earlier
    trace = gen_markov_trace(seed=2, num_keys=8, length=40, determinism=1.0)
    report = run_sim(trace, lru(4, **pgm(min_support=1)))
    assert report.demand_misses == 9
    assert report.demand_hits == 31
    assert report.prefetch_issued == 32
    assert report.prefetch_useful == 31
    assert report.prefetch_useless == 1
    assert report.prefetch_harmful == 0
    assert report.prefetch_coverage == pytest.approx(100 * 31 / 40)


def test_on_miss_trigger_issues_fewer_prefetches():
    trace = gen_markov_trace(seed=9, num_keys=50, length=5000, determinism=0.9)
    always = run_sim(trace, lru(8, **pgm(min_support=1)))
    on_miss = run_sim(trace, lru(8, **pgm(min_support=1, trigger=ON_MISS)))
    assert 0 < on_miss.prefetch_issued < always.prefetch_issued


def test_timer_and_halfway_counters_surface():
    trace = as_trace([100, 200, 900, 100, 900, 200])
    pre = PreEvictConfig(halfway_enabled=True, address_space_size=1000,
                         timer_enabled=True, timer_init=2)
    report = run_sim(trace, lru(4, pre=pre))
    assert report.halfway_evictions > 0
    assert report.timer_evictions > 0
    assert report.evictions >= report.halfway_evictions + report.timer_evictions


def test_compare_capacity_sweep_monotone_lru():
    trace = gen_markov_trace(seed=3, num_keys=300, length=30_000, determinism=0.6)
    configs = [lru(k, label=f"lru@{k}") for k in (6, 32, 775)]
    reports = compare(trace, configs)
    assert [r.label for r in reports] == ["lru@6", "lru@32", "lru@775"]
    hits = [r.demand_hits for r in reports]
    assert hits == sorted(hits)


def test_compare_single_config_equals_run_sim():
    trace = as_trace(REF_12)
    assert compare(trace, [lru(4)]) == [run_sim(trace, lru(4))]


def test_compare_duplicate_label():
    with pytest.raises(DuplicateLabel):
        compare(as_trace([1]), [lru(2, label="same"), lru(3, label="same")])


def test_compare_permutation_permutes_reports():
    trace = as_trace(REF_20)
    configs = [lru(2, label="a"), lru(3, label="b"), lru(4, label="c")]
    fwd = compare(trace, configs)
    rev = compare(trace, configs[::-1])
    assert fwd == rev[::-1]


def test_emit_json_schema_and_invariant():
    report = run_sim(as_trace(REF_12), lru(4))
    payload = json.loads(emit_report([report], "json"))
    assert isinstance(payload, list) and len(payload) == 1
    assert list(payload[0]) == REPORT_FIELDS
    assert payload[0]["demand_hits"] + payload[0]["demand_misses"] == payload[0]["accesses"]


def test_emit_csv_header_only_when_empty():
    assert emit_report([], "csv") == ",".join(REPORT_FIELDS) + "\n"


def test_emit_csv_round_trip_byte_identical():
    trace = gen_markov_trace(seed=12, num_keys=50, length=3000, determinism=0.7)
    reports = compare(trace, [lru(4, label="a"), lru(8, label="b", **pgm())])
    text = emit_report(reports, "csv")
    again = emit_report(parse_report_csv(text), "csv")
    assert again == text


def test_emit_csv_float_rendering():
    report = run_sim(as_trace(REF_12), lru(4))
    line = emit_report([report], "csv").splitlines()[1]
    assert f"{report.hit_ratio:.4f}" in line


def test_emit_table_is_aligned_text():
    report = run_sim(as_trace(REF_12), lru(4))
    text = emit_report([report], "table")
    lines = text.splitlines()
    assert len(lines) == 2
    assert "hit_ratio" in lines[0]
    assert "0.3333" in lines[1]


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_reports_are_reproducible_bit_for_bit():
    trace = gen_markov_trace(seed=31, num_keys=80, length=8000, determinism=0.85)
    configs = [lru(8, label="l8"),
               lru(8, label="l8p", **pgm()),
               RunConfig(cache=CacheConfig(8, "arc"), label="arc",
                         pre=PreEvictConfig(timer_enabled=True, timer_init=16))]
    first = emit_report(compare(trace, configs), "json")
    second = emit_report(compare(trace, configs), "json")
    assert first == second


def test_run_sim_accepts_parsed_trace():
    trace = parse_plain("1\n2\n3\n1\n")
    report = run_sim(trace, lru(2))
    assert report.accesses == 4


@st.composite
def plain_runs(draw):
    policy = draw(st.sampled_from(POLICIES))
    adaptation = draw(st.sampled_from(("unit", "ratio")))
    capacity = draw(st.integers(1, 8))
    keys = draw(st.lists(st.integers(0, draw(st.integers(1, 20))), max_size=150))
    return CacheConfig(capacity, policy, adaptation), keys


@settings(max_examples=300, deadline=None, database=None)
@given(plain_runs())
def test_plain_report_equals_per_event_loop_and_oracles(case):
    cache, keys = case
    trace = as_trace(keys)
    plain = run_sim(trace, RunConfig(cache=cache, label="plain"))
    # a timer that never runs out sends the same run through the per-event loop
    inert = PreEvictConfig(timer_enabled=True, timer_init=len(trace) + 1)
    stepped = run_sim(trace, RunConfig(cache=cache, pre=inert, label="stepped"))
    assert dataclasses.replace(plain, label="stepped") == stepped
    if cache.policy == "arc":
        hits, misses = ref_arc_run(keys, cache.capacity, cache.arc_adaptation)[:2]
    else:
        hits, misses = ref_policy_run(keys, cache.capacity, cache.policy)[:2]
    assert (plain.demand_hits, plain.demand_misses) == (hits, misses)
    assert plain.compulsory_misses == plain.distinct_keys == len(set(keys))
