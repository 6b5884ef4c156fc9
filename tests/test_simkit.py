import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import cachelab.policies
import cachelab.prefetch
from cachelab import PreEvictConfig
from cachelab.policies import POLICIES, CacheConfig, PreEvictingCache, make_cache
from cachelab.prefetch import (
    ON_EVERY_ACCESS,
    ON_MISS,
    MarkovPredictor,
    PredictorConfig,
    PrefetchConfig,
    Prefetcher,
)
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
from cachelab.trace import Trace, gen_markov_trace, parse_plain

import hashes
from reference import book, predictor_state, ref_arc_run, ref_policy_run, ref_run_sim

REF_12 = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
REF_20 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]


def as_trace(keys):
    return Trace(list(keys))


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


@pytest.mark.parametrize("keys, pre, counts", [
    # the prefetch of 1 displaces 2; demanding 2 clears 0 and 1 (below halfway 2)
    # before its miss, and 2's own step prefetches 0, pending at the end
    ([0, 1, 2, 0, 2], PreEvictConfig(halfway_enabled=True, address_space_size=4),
     dict(prefetch_issued=2, prefetch_harmful=1, prefetch_useless=1, halfway_evictions=4,
          demand_hits=0)),
    # the prefetch of 1 displaces 2, and 1's timer runs out as 2 is demanded
    ([0, 1, 2, 0, 0, 2], PreEvictConfig(timer_enabled=True, timer_init=2),
     dict(prefetch_issued=1, prefetch_harmful=1, prefetch_useless=0, timer_evictions=3,
          demand_hits=1)),
], ids=["halfway", "timer"])
def test_prefetch_harmful_when_a_rule_removes_it_before_its_victim_misses(keys, pre, counts):
    # the harmful count is taken at the top of the access, before the rules run
    config = lru(2, pre=pre, **pgm(alpha=0.0, min_support=1, p_min=0.0))
    report = dataclasses.asdict(run_sim(as_trace(keys), config))
    assert {name: report[name] for name in counts} == counts
    assert report == ref_run_sim(keys, config)


def test_prefetch_driver_useless_case():
    # prefetched 2 is evicted untouched by later demand inserts
    trace = as_trace([1, 2, 1, 5, 1, 6, 7])
    report = run_sim(trace, lru(2, **pgm(alpha=0.0, min_support=1, p_min=0.0)))
    assert report.prefetch_issued >= 1
    assert report.prefetch_useless >= 1
    assert report.prefetch_harmful == 0


@pytest.mark.parametrize("policy", POLICIES)
def test_prefetched_key_hit_twice_counts_useful_once(policy):
    # k=1 leaves every policy one victim; 2 is demand-hit at 2 before any prefetch,
    # then prefetched at 3 (displacing 1) and demand-hit at 4 and 5
    trace = as_trace([1, 2, 2, 1, 2, 2])
    report = run_sim(trace, RunConfig(cache=CacheConfig(1, policy), label="p",
                                      **pgm(p_min=0.6, alpha=0.0, min_support=1)))
    assert (report.demand_hits, report.demand_misses) == (3, 3)
    assert report.prefetch_issued == 1
    assert report.prefetch_useful == 1
    assert (report.prefetch_useless, report.prefetch_harmful) == (0, 0)


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


def test_parse_report_csv_rejects_an_unknown_header():
    with pytest.raises(ValueError, match=r"^unexpected csv header \['a', 'b'\]$"):
        parse_report_csv("a,b\n")


@pytest.mark.parametrize("cells", [14, 16, 1])
def test_parse_report_csv_rejects_row_of_wrong_length(cells):
    # a short row would miss SimReport arguments; zip would cut a long one short
    header, row = emit_report([run_sim(as_trace(REF_12), lru(4))], "csv").splitlines()
    row = ",".join((row.split(",") + ["0"])[:cells])
    with pytest.raises(ValueError, match=f"csv line 2: expected 15 cells, got {cells}"):
        parse_report_csv(f"{header}\n{row}\n")


def report_csv_with(column, cell):
    """A one-report csv whose cell in the named column is replaced."""
    header, row = emit_report([run_sim(as_trace(REF_12), lru(4))], "csv").splitlines()
    cells = row.split(",")
    cells[REPORT_FIELDS.index(column)] = cell
    return f"{header}\n{','.join(cells)}\n"


def test_parse_report_csv_names_a_non_numeric_cell():
    with pytest.raises(ValueError, match="^csv line 2: column 'accesses': bad value 'a'$"):
        parse_report_csv(report_csv_with("accesses", "a"))
    with pytest.raises(ValueError, match="^csv line 2: column 'hit_ratio': bad value 'x'$"):
        parse_report_csv(report_csv_with("hit_ratio", "x"))


@pytest.mark.parametrize("column", ["accesses", "evictions", "hit_ratio"])
def test_parse_report_csv_rejects_negative_cells(column):
    with pytest.raises(ValueError, match=f"^csv line 2: column '{column}': bad value '-5'$"):
        parse_report_csv(report_csv_with(column, "-5"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_parse_report_csv_rejects_non_finite_floats(cell):
    for column in ("prefetch_coverage", "hit_ratio"):
        with pytest.raises(ValueError, match=f"^csv line 2: column '{column}': bad value"):
            parse_report_csv(report_csv_with(column, cell))


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
    # a timer that never runs out sends the same run through the replay's extras loop
    inert = PreEvictConfig(timer_enabled=True, timer_init=len(trace) + 1)
    stepped = run_sim(trace, RunConfig(cache=cache, pre=inert, label="stepped"))
    assert dataclasses.replace(plain, label="stepped") == stepped
    if cache.policy == "arc":
        hits, misses = ref_arc_run(keys, cache.capacity, cache.arc_adaptation)[:2]
    else:
        hits, misses = ref_policy_run(keys, cache.capacity, cache.policy)[:2]
    assert (plain.demand_hits, plain.demand_misses) == (hits, misses)
    assert plain.compulsory_misses == plain.distinct_keys == len(set(keys))


@st.composite
def prefetch_runs(draw):
    """Any policy with the prefetcher and no rule, every prefetch setting drawn,
    and 0-3 cuts that split the trace into replay chunks."""
    num_keys = draw(st.integers(2, 16))
    keys = draw(st.lists(st.integers(0, num_keys - 1), max_size=120)
                | st.builds(lambda *args: gen_markov_trace(*args).keys,
                            st.integers(0, 99), st.just(num_keys), st.integers(1, 120),
                            st.sampled_from((0.5, 0.9, 1.0))))
    cache = CacheConfig(draw(st.integers(1, 6)), draw(st.sampled_from(POLICIES)))
    prefetch = PrefetchConfig(draw(st.integers(1, 3)),
                              draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0, 1)),
                              draw(st.sampled_from((ON_MISS, ON_EVERY_ACCESS))))
    predictor = PredictorConfig(draw(st.integers(1, 2)),
                                draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 4)),
                                draw(st.integers(0, 4)))
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=3)))
    return keys, RunConfig(cache=cache, prefetch=prefetch, predictor=predictor,
                           label="run"), cuts


@settings(max_examples=300, deadline=None, database=None)
@given(prefetch_runs())
def test_prefetch_run_without_rule_equals_inert_timer_run_whole_and_chunked(case):
    keys, config, cuts = case
    trace = as_trace(keys)
    # without a rule, CacheState.replay counts harmful prefetches on the miss, and
    # under a timer that never runs out, at the top of each access
    inert = PreEvictConfig(timer_enabled=True, timer_init=len(trace) + 1)
    assert run_sim(trace, config) == run_sim(trace, dataclasses.replace(config, pre=inert))
    chunks = [keys[i:j] for i, j in zip([0, *cuts], [*cuts, len(keys)])]
    states = []
    for pre, replayed in ((inert, [keys]), (None, [keys]), (None, chunks)):
        cache = make_cache(config.cache)
        front = cache if pre is None else PreEvictingCache(cache, pre)
        fetch = Prefetcher(config.prefetch, config.predictor)
        hits = sum(front.replay(chunk, fetch=fetch) for chunk in replayed)
        states.append((hits, fetch.issued, fetch.useful, fetch.harmful,
                       predictor_state(fetch.predictor), fetch.pending, fetch.by_victim,
                       book(cache)))
    assert states[0] == states[1] == states[2]


@st.composite
def sim_cases(draw):
    """A short trace and a config with every run_sim setting drawn: policy and ARC
    adaptation, capacity, timer, halfway rule and, on most runs, the prefetcher."""
    num_keys = draw(st.integers(2, 16))
    keys = draw(st.lists(st.integers(0, num_keys - 1), max_size=80)
                | st.builds(lambda *args: gen_markov_trace(*args).keys,
                            st.integers(0, 99), st.just(num_keys), st.integers(1, 80),
                            st.sampled_from((0.5, 0.9, 1.0))))
    cache = CacheConfig(draw(st.integers(1, 6)), draw(st.sampled_from(POLICIES)),
                        draw(st.sampled_from(("unit", "ratio"))))
    halfway, timer = draw(st.booleans()), draw(st.booleans())
    pre = None
    if halfway or timer or draw(st.booleans()):
        pre = PreEvictConfig(halfway_enabled=halfway,
                             address_space_size=draw(st.integers(2, 2 * num_keys + 2)),
                             timer_enabled=timer,
                             timer_init=draw(st.integers(1, 3 * cache.capacity + 5)))
    prefetch = predictor = None
    if draw(st.integers(0, 3)):
        prefetch = PrefetchConfig(draw(st.integers(1, 3)),
                                  draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0, 1)),
                                  draw(st.sampled_from((ON_MISS, ON_EVERY_ACCESS))))
        predictor = draw(st.none() | st.builds(
            PredictorConfig, st.integers(1, 2),
            st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0, 4), st.integers(0, 4)))
    return keys, RunConfig(cache=cache, pre=pre, prefetch=prefetch, predictor=predictor,
                           label="run")


@settings(max_examples=400, deadline=None, database=None)
@given(sim_cases())
def test_run_sim_matches_naive_oracle(case):
    keys, config = case
    assert dataclasses.asdict(run_sim(as_trace(keys), config)) == ref_run_sim(keys, config)


NAMED_KEYS = 24
NAMED_SHAPES = [  # (policy, pre-eviction, top_k, trigger, order), beside the drawn cases
    ("arc", "timer", 3, ON_MISS, 2),  # the benchmark's churn shape
    # a classical policy's prefetch insertion under each rule
    ("mru", "timer", 1, ON_EVERY_ACCESS, 1), ("lru", "halfway", 3, ON_MISS, 1),
    *[("arc", "halfway", top_k, trigger, 1) for top_k in (1, 3)
      for trigger in (ON_MISS, ON_EVERY_ACCESS)],
    *[(policy, None, top_k, trigger, 1) for policy in POLICIES for top_k in (1, 3)
      for trigger in (ON_MISS, ON_EVERY_ACCESS)],
]


@pytest.mark.parametrize("policy, rule, top_k, trigger, order", NAMED_SHAPES)
def test_run_sim_matches_naive_oracle_on_named_shapes(policy, rule, top_k, trigger, order):
    pre = {None: None,
           "timer": PreEvictConfig(timer_enabled=True, timer_init=15),
           "halfway": PreEvictConfig(halfway_enabled=True, address_space_size=NAMED_KEYS)}[rule]
    totals = dict.fromkeys(["prefetch_issued", "prefetch_useful", "prefetch_harmful",
                            "timer_evictions", "halfway_evictions"], 0)
    for seed in range(3):
        keys = gen_markov_trace(seed, NAMED_KEYS, 300, 0.7).keys
        config = RunConfig(cache=CacheConfig(6, policy), pre=pre, label="run",
                           **pgm(top_k, 0.05, trigger, order, 1.0, 1))
        report = dataclasses.asdict(run_sim(as_trace(keys), config))
        assert report == ref_run_sim(keys, config)
        for name in totals:
            totals[name] += report[name]
    # every outcome the ledger judges, and the rule's own evictions, happen here
    assert totals["prefetch_useful"] and totals["prefetch_harmful"], totals
    assert totals["prefetch_issued"] > totals["prefetch_useful"] + totals["prefetch_harmful"]
    assert rule is None or totals[f"{rule}_evictions"], totals


@pytest.mark.parametrize("top_k", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("trigger", [ON_MISS, ON_EVERY_ACCESS])
def test_replay_makes_one_leaders_pass_and_no_stepped_call(monkeypatch, top_k, order, trigger):
    # what the predictor ranks depends on the keys alone, so every prefetch run reads
    # one pass; an on-miss hit's entry is listed and skipped, never ranked again
    calls = []
    for owner, name in [(MarkovPredictor, "observe"), (MarkovPredictor, "predict_next"),
                        (MarkovPredictor, "leaders"), (cachelab.prefetch, "decide_prefetch")]:
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, method=method:
                            calls.append(name) or method(*args))
    assert not hasattr(cachelab.policies, "decide_prefetch")
    keys = gen_markov_trace(order * 10 + top_k, 30, 400, 0.6).keys
    for min_support in range(6):
        policy = POLICIES[min_support % len(POLICIES)]
        pre = PreEvictConfig(timer_enabled=True, timer_init=9) if min_support % 2 else None
        config = RunConfig(cache=CacheConfig(6, policy), pre=pre, label="run",
                           **pgm(top_k, 0.05, trigger, order, 1.0, min_support))
        calls.clear()
        report = run_sim(as_trace(keys), config)
        assert calls == ["leaders"] and report.prefetch_issued, min_support
        assert dataclasses.asdict(report) == ref_run_sim(keys, config), min_support


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("trigger", [ON_MISS, ON_EVERY_ACCESS])
def test_top1_replay_makes_one_leaders_pass_and_no_stepped_call(monkeypatch, policy, trigger):
    # each policy's top-1 replay under a timer and a second-order predictor
    calls = []
    for owner, name in [(MarkovPredictor, "observe"), (MarkovPredictor, "predict_next"),
                        (MarkovPredictor, "leaders"), (cachelab.prefetch, "decide_prefetch")]:
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, method=method:
                            calls.append(name) or method(*args))
    keys = gen_markov_trace(6, 30, 400, 0.7).keys
    pre = PreEvictConfig(timer_enabled=True, timer_init=9)
    config = RunConfig(cache=CacheConfig(6, policy), pre=pre, label="run",
                       **pgm(1, 0.05, trigger, 2, 0.5, 1))
    report = run_sim(as_trace(keys), config)
    assert dataclasses.asdict(report) == ref_run_sim(keys, config)
    assert calls == ["leaders"] and report.prefetch_issued


def test_first_access_misses_on_random_configs():
    # compulsory misses are counted as distinct keys, which holds only while no
    # prefetch brings a key in ahead of its first request: the oracle's hit on every
    # access, for a run whose report equals run_sim's, shows none does
    early = []
    rng = random.Random(1500)
    for _ in range(300):
        trace, config = hashes.random_case(rng, extras=True)
        report = run_sim(trace, config)
        assert report.compulsory_misses == report.distinct_keys == len(set(trace.keys))
        hits, seen = [], set()
        assert dataclasses.asdict(report) == ref_run_sim(trace.keys, config, hits)
        for key, hit in zip(trace.keys, hits):
            if key not in seen and hit:
                early.append(key)
            seen.add(key)
    assert early == []


@pytest.mark.parametrize("argv", [["nope"], ["--check", "uplift", "nope"], ["--bad"]])
def test_hashes_rejects_unknown_names(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        hashes.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hashes.py [--check] [NAME ...]")


@pytest.mark.parametrize("name", ["plain", "churn", "bayes", "uplift"])
def test_guard_hash_matches_recorded(name):
    # the four quicker guard hashes; sweep and random run with `tests/hashes.py --check`
    assert hashes.sha(hashes.HASHES[name]()) == hashes.RECORDED[name]
