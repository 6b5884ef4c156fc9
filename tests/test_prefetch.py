import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachelab.bayes import Variable, learn_cpts
from cachelab.policies import CacheConfig, PreEvictConfig, PreEvictingCache, make_cache
from cachelab.prefetch import (
    ON_EVERY_ACCESS,
    ON_MISS,
    MarkovPredictor,
    PredictorConfig,
    PrefetchConfig,
    Prefetcher,
    coverage,
    decide_prefetch,
)
from cachelab.simkit import RunConfig, run_sim
from cachelab.trace import InvalidParam, Trace, gen_markov_trace

from reference import predictor_state, ref_predict, resident


def feed(pred, keys):
    for key in keys:
        pred.observe(key)


def row_counts(pred):
    """Each context's successor counts as (key, count) pairs in first-seen order."""
    return {ctx: list(row.successors().items()) for ctx, row in pred.counts.items()}


def test_observe_order1_counts():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    feed(pred, ["A", "B", "A", "B"])
    assert row_counts(pred) == {("A",): [("B", 2)], ("B",): [("A", 1)]}


def test_observe_order2_counts():
    pred = MarkovPredictor(order=2, alpha=0, min_support=0)
    feed(pred, ["A", "B", "C"])
    assert row_counts(pred) == {("A", "B"): [("C", 1)]}


def test_empty_stream_empty_counts():
    pred = MarkovPredictor()
    assert pred.counts == {}
    assert pred.predict_next(("A",), 3) == []


def test_predict_frequencies_and_ranking():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    feed(pred, ["A", "B", "A", "B", "A", "B", "A", "C"])
    preds = pred.predict_next(("A",), 2)
    assert preds == [("B", 0.75), ("C", 0.25)]


def test_predict_unseen_context():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    feed(pred, ["A", "B"])
    assert pred.predict_next(("Z",), 2) == []


@pytest.mark.parametrize("context", [(2,), [1, 2, 3]])
def test_predict_refuses_a_context_of_the_wrong_length(context):
    # an order-2 predictor that has seen the context (1, 2): a short or long context
    # is the caller's error, not a context with nothing to predict
    pred = MarkovPredictor(order=2, alpha=0, min_support=0)
    feed(pred, [1, 2, 3, 1, 2, 3])
    assert pred.predict_next((1, 2), 1) == [(3, 1.0)]
    with pytest.raises(InvalidParam, match=rf"^context must hold 2 keys, got {len(context)}$"):
        pred.predict_next(context, 1)


def test_predict_min_support_gate():
    pred = MarkovPredictor(order=1, alpha=0, min_support=2)
    feed(pred, ["A", "B"])
    assert pred.predict_next(("A",), 1) == []
    feed(pred, ["A", "B"])
    assert pred.predict_next(("A",), 1) == [("B", 1.0)]


def test_predict_smoothing_formula():
    pred = MarkovPredictor(order=1, alpha=1.0, min_support=0)
    feed(pred, ["A", "B", "A", "B", "A", "C"])
    # counts from A: B=2, C=1; total=3, distinct=2
    preds = dict(pred.predict_next(("A",), 2))
    assert preds["B"] == pytest.approx(3 / 5)
    assert preds["C"] == pytest.approx(2 / 5)


def test_predict_tie_break_ascending_key():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    feed(pred, [9, 3, 9, 1, 9, 3, 9, 1])
    preds = pred.predict_next((9,), 2)
    assert [k for k, _ in preds] == [1, 3]
    # the leader after 9 went 3, 1 (tie), 3, 1 (tie): ties go to the lower key
    assert pred.predict_next((9,), 1) == [(1, 0.5)]


@pytest.mark.parametrize("order", [1, 2])
def test_predict_top1_is_head_of_full_ranking(order):
    rng = random.Random(order)
    pred = MarkovPredictor(order=order, alpha=0.5, min_support=0)
    ties = 0
    # few keys, so a context's leading successors often tie on count
    for key in [rng.randrange(6) for _ in range(400)]:
        pred.observe(key)
        ranked = pred.predict_next(None, 6)
        assert pred.predict_next(None, 1) == ranked[:1]
        ties += len(ranked) > 1 and ranked[0][1] == ranked[1][1]
    assert ties > 20
    for ctx, row in pred.counts.items():
        successors = row.successors()
        ranked = pred.predict_next(ctx, len(successors))
        assert pred.predict_next(ctx, 1) == ranked[:1]
        assert [successors[k] for k, _ in ranked] == sorted(successors.values(), reverse=True)


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from((1, 2)), st.integers(1, 9), st.sampled_from((0, 0.5, 1.0)),
       st.lists(st.integers(-3, 12), max_size=120))
def test_predict_ranking_equals_sort_by_count_then_key(order, top_k, alpha, keys):
    pred = MarkovPredictor(order=order, alpha=alpha, min_support=0)
    feed(pred, keys)
    for ctx, successors in row_counts(pred).items():
        denom = sum(count for _, count in successors) + alpha * len(successors)
        ranked = sorted(successors, key=lambda kv: (-kv[1], kv[0]))[:top_k]
        assert pred.predict_next(ctx, top_k) == [(k, (c + alpha) / denom) for k, c in ranked]


@pytest.mark.parametrize("order", [1, 2])
def test_observe_returns_the_new_contexts_row(order):
    rng = random.Random(10 + order)
    pred = MarkovPredictor(order=order, alpha=0.5, min_support=0)
    rows = 0
    for key in [rng.randrange(5) for _ in range(300)]:
        row = pred.observe(key)
        assert row is pred.counts.get(pred.context)
        rows += row is not None
    assert rows > 250


def test_predictor_rows_stay_lean():
    # 40k keys drawn from a million: each order-2 context is seen once, so every row
    # has one successor, and such a row holds no dict of its own
    rng = random.Random(0)
    keys = [rng.randrange(1_000_000) for _ in range(40_000)]
    pred = MarkovPredictor(order=2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entries = pred.leaders(keys, 0.1)
        held = tracemalloc.get_traced_memory()[0] - before - sys.getsizeof(entries)
    finally:
        tracemalloc.stop()
    assert len(pred.counts) == len(keys) - 2
    assert held / len(pred.counts) <= 200
    assert [ctx for ctx, row in pred.counts.items()
            if len(row.successors()) == 1 and row.others is not None] == []


@settings(max_examples=500, deadline=None, database=None)
@given(st.sampled_from((1, 2)), st.sampled_from((0, 0.5, 1.0)) | st.floats(0, 4),
       st.integers(0, 3), st.sampled_from((0.0, 1 / 3, 0.5, 2 / 3, 1.0)) | st.floats(0, 1),
       st.integers(1, 4), st.lists(st.integers(-2, 6), max_size=150),
       st.lists(st.integers(0, 150), max_size=4))
def test_leaders_equal_stepped_top1_predictions(order, alpha, min_support, p_min, top_k, keys,
                                                cuts):
    # each entry is the recounted oracle's ranking after that key, cut at p_min; few
    # keys make tied counts and probabilities exactly at p_min common, the cuts split
    # the pass into chunks, and stepped observe calls must leave the same counts
    expected = []
    for t in range(len(keys)):
        ahead = [key for key, prob in ref_predict(keys[:t + 1], order, alpha, min_support, top_k)
                 if prob >= p_min]
        expected.append(None if not ahead else ahead[0] if top_k == 1 else tuple(ahead))
    passed = MarkovPredictor(order, alpha, min_support)
    bounds = sorted(min(cut, len(keys)) for cut in cuts)
    chunks = [keys[i:j] for i, j in zip([0, *bounds], [*bounds, len(keys)])]
    assert [entry for chunk in chunks for entry in passed.leaders(chunk, p_min, top_k)] == expected
    if len(passed.context) == order:  # None asks after the context the passes left
        assert passed.predict_next(None, top_k) == passed.predict_next(passed.context, top_k)
    stepped = MarkovPredictor(order, alpha, min_support)
    feed(stepped, keys)
    assert predictor_state(passed) == predictor_state(stepped)


def test_leaders_keep_a_leader_at_exactly_p_min():
    # at the second 1, context (1,) has seen 2 and 3 once each: 2 leads at exactly 0.5
    keys = [1, 2, 1, 3, 1]
    assert MarkovPredictor(1, 0, 0).leaders(keys, 0.5) == [None, None, 2, None, 2]
    assert MarkovPredictor(1, 0, 0).leaders(keys, 0.5000001) == [None, None, 2, None, None]
    assert MarkovPredictor(1, 0, 3).leaders(keys, 0.0) == [None] * 5
    # top-2 entries keep every key at or above p_min: at the last 1, 2 and 3 tie at 0.5
    assert MarkovPredictor(1, 0, 0).leaders(keys, 0.5, 2) == [None, None, (2,), None, (2, 3)]
    assert MarkovPredictor(1, 0, 0).leaders(keys, 0.5000001, 2) == [None, None, (2,), None, None]


@pytest.mark.parametrize("policy", ["fifo", "lifo", "lru", "mru", "arc"])
def test_top1_replay_of_a_one_shot_iterator_equals_the_lists(policy):
    # the leaders pass reads the keys before the replay does, for top-1 and top-k runs
    keys = gen_markov_trace(5, 12, 300, 0.8).keys
    for top_k in (1, 3):
        runs = []
        for replayed in (keys, iter(keys)):
            fetch = Prefetcher(PrefetchConfig(top_k, 0.2), PredictorConfig(1, 1.0, 1))
            cache = make_cache(CacheConfig(4, policy))
            hits = cache.replay(replayed, fetch=fetch)
            runs.append((hits, fetch.issued, fetch.useful, fetch.harmful, resident(cache),
                         predictor_state(fetch.predictor)))
        assert runs[0] == runs[1], top_k
        assert runs[0][1], top_k


@pytest.mark.parametrize("order", [1, 2])
def test_predictor_is_the_chain_nets_cpt(order):
    # At alpha=0 an order-o predictor's row is the CPT row of the chain net
    # {k_t: [k_t-o .. k_t-1]} that learn_cpts counts from the trace's windows, with
    # zero for every successor the context never saw.
    rng = random.Random(20 + order)
    names = [f"k{i}" for i in range(order + 1)]
    for _ in range(100):
        keys = [rng.randrange(rng.randint(1, 7)) for _ in range(rng.randint(order + 1, 200))]
        pred = MarkovPredictor(order=order, alpha=0, min_support=0)
        feed(pred, keys)
        values = sorted(set(keys))
        index = {key: i for i, key in enumerate(values)}
        card = max(2, len(values))
        windows = [keys[t - order:t + 1] for t in range(order, len(keys))]
        net = learn_cpts([Variable(name, card) for name in names], {names[-1]: names[:-1]},
                         [{name: index[key] for name, key in zip(names, w)} for w in windows])
        rows = net.cpts[names[-1]].rows
        for ctx, successors in row_counts(pred).items():
            probs = dict(pred.predict_next(ctx, len(successors)))
            cell = 0
            for key in ctx:
                cell = cell * card + index[key]
            for key in values:
                assert abs(probs.get(key, 0.0) - rows[cell][index[key]]) <= 1e-12


def test_predict_after_deterministic_cycle():
    trace = gen_markov_trace(seed=4, num_keys=6, length=60, determinism=1.0)
    pred = MarkovPredictor(order=1, alpha=0, min_support=1)
    feed(pred, trace.keys)
    for s in range(6):
        assert pred.predict_next((s,), 1) == [((s + 1) % 6, 1.0)]


def test_predictor_is_pure_function_of_stream():
    keys = [1, 2, 1, 3, 1, 2, 2, 3]
    a = MarkovPredictor(order=1, alpha=0.5, min_support=1)
    b = MarkovPredictor(order=1, alpha=0.5, min_support=1)
    feed(a, keys)
    feed(b, keys)
    assert predictor_state(a) == predictor_state(b)
    assert a.predict_next((1,), 3) == b.predict_next((1,), 3)


def test_module_level_wrappers():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    pred.observe("A")
    pred.observe("B")
    assert pred.predict_next(("A",), 1) == [("B", 1.0)]


@pytest.mark.parametrize("kwargs", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": -1.0}, {"order": 3}, {"min_support": -1},
    {"alpha": "1"}, {"alpha": None}, {"alpha": True}, {"alpha": False},
])
def test_predictor_config_rejects_bad_params(kwargs):
    with pytest.raises(InvalidParam):
        PredictorConfig(**kwargs)


@pytest.mark.parametrize("p_min", ["0.5", None, math.nan, -0.1, True])
def test_prefetch_config_rejects_bad_p_min(p_min):
    with pytest.raises(InvalidParam, match=r"^p_min must be in \[0, 1\], got "):
        PrefetchConfig(p_min=p_min)


def test_prefetch_config_keeps_p_min_as_a_float():
    # NumPy compares a float against a float32 in float32, so the threshold np.float32(0.1)
    # would admit a leader at exactly 0.1 that its own value, 0.10000000149011612, refuses
    config = PrefetchConfig(p_min=np.float32(0.1))
    assert type(config.p_min) is float and config.p_min == float(np.float32(0.1))
    keys = [k for successor in range(1, 11) for k in (0, successor)] + [0]
    assert MarkovPredictor(1, 0, 0).leaders(keys, 0.1)[-1] is not None  # 10 successors
    assert MarkovPredictor(1, 0, 0).leaders(keys, config.p_min)[-1] is None


@pytest.mark.parametrize("alpha", [np.float32(0.1), Fraction(1, 10)], ids=["float32", "fraction"])
def test_predictor_keeps_alpha_as_a_float(alpha):
    assert type(PredictorConfig(alpha=alpha).alpha) is float
    pred, expected = MarkovPredictor(1, alpha, 0), MarkovPredictor(1, float(alpha), 0)
    for predictor in (pred, expected):
        feed(predictor, [1, 2, 1, 3, 1, 2])
    assert type(pred.alpha) is float
    ranked = pred.predict_next((1,), 2)
    assert {type(prob) for _, prob in ranked} == {float}
    assert ranked == expected.predict_next((1,), 2)


def test_predictor_param_validation():
    with pytest.raises(InvalidParam):
        MarkovPredictor(order=3)
    with pytest.raises(InvalidParam):
        MarkovPredictor(alpha=-1)
    with pytest.raises(InvalidParam):
        MarkovPredictor(min_support=-1)
    for alpha in (math.nan, math.inf, "1", None):
        with pytest.raises(InvalidParam, match=r"^alpha must be finite and >= 0, got "):
            MarkovPredictor(alpha=alpha)
    predictor = MarkovPredictor(np.int64(2), 1.0, np.int64(3))  # kept as ints, as in configs
    assert type(predictor.order) is int and type(predictor.min_support) is int
    with pytest.raises(InvalidParam):
        PrefetchConfig(top_k=0)
    with pytest.raises(InvalidParam):
        PrefetchConfig(p_min=1.5)
    with pytest.raises(InvalidParam):
        PrefetchConfig(trigger="sometimes")


@pytest.mark.parametrize("make", [lambda alpha: MarkovPredictor(alpha=alpha),
                                  lambda alpha: PredictorConfig(alpha=alpha)],
                         ids=["MarkovPredictor", "PredictorConfig"])
def test_alpha_past_the_float_range_is_refused_in_its_words(make):
    # an int that compares below inf but that no float can hold
    with pytest.raises(InvalidParam) as err:
        make(10**400)
    assert str(err.value) == "alpha must be finite and >= 0, got <int of 1329 bits>"


def test_decide_prefetch_threshold_filter():
    cfg = PrefetchConfig(top_k=2, p_min=0.5)
    assert decide_prefetch([("B", 0.75), ("C", 0.25)], cfg, set()) == ["B"]


def test_decide_prefetch_skips_residents():
    cfg = PrefetchConfig(top_k=2, p_min=0.0)
    assert decide_prefetch([("B", 0.75), ("C", 0.25)], cfg, {"B", "C"}) == []


def test_decide_prefetch_top_k_cap():
    cfg = PrefetchConfig(top_k=2, p_min=0.0)
    preds = [("B", 0.5), ("C", 0.3), ("D", 0.2)]
    assert decide_prefetch(preds, cfg, set()) == ["B", "C"]


def outcomes(keys, trigger=ON_MISS, capacity=1, policy="lru"):
    """(issued, useful, useless, harmful) of one run whose predictor prefetches the
    leader of every seen context. At capacity 1 each prefetch evicts the key just
    accessed, so the step-by-step comments below follow from the keys alone."""
    config = RunConfig(cache=CacheConfig(capacity, policy),
                       prefetch=PrefetchConfig(top_k=1, p_min=0.0, trigger=trigger),
                       predictor=PredictorConfig(order=1, alpha=0.0, min_support=1))
    r = run_sim(Trace(list(keys)), config)
    return r.prefetch_issued, r.prefetch_useful, r.prefetch_useless, r.prefetch_harmful


def test_record_useful_on_demand_hit():
    # the miss on the second 1 prefetches 2 (evicting 1); the demand hit on 2 is useful
    assert outcomes([1, 2, 1, 2]) == (1, 1, 0, 0)


def test_record_useless_on_untouched_eviction():
    # 2 is prefetched at the second 1 and evicted by the miss on 3: useless. The
    # later request for 2 misses, too late to count; the prefetch of 1 that miss
    # issues is pending at the end
    assert outcomes([1, 2, 1, 3, 2]) == (2, 0, 2, 0)


def test_record_harmful_on_victim_miss():
    # prefetching 2 evicts 1, and 1 is requested again before 2: harmful
    assert outcomes([1, 2, 1, 1]) == (1, 0, 0, 1)


def test_harmful_requires_pending():
    # the hit on 2 settles its prefetch as useful before its victim 1 misses; that
    # miss prefetches 2 again, pending at the end
    assert outcomes([1, 2, 1, 2, 1]) == (2, 1, 1, 0)


def test_each_record_resolves_exactly_once():
    # the miss on 1 makes the prefetch of 2 harmful and evicts 2, which neither
    # that eviction nor the later request for 2 counts again; the last miss
    # prefetches 1, pending at the end
    assert outcomes([1, 2, 1, 1, 2]) == (2, 0, 1, 1)


def test_finalize_resolves_pending_as_useless():
    # prefetching on every access: the hit on 2 is useful and prefetches 1, which
    # is still pending when the trace ends
    issued, useful, useless, harmful = outcomes([1, 2, 1, 2], ON_EVERY_ACCESS)
    assert (issued, useful, useless, harmful) == (2, 1, 1, 0)
    assert useful + useless + harmful == issued


def test_reissue_after_eviction_gets_fresh_record():
    # 2 is prefetched, evicted untouched by the miss on 3, prefetched again at the
    # third 1 and then hit: one useless record and one useful
    assert outcomes([1, 2, 1, 3, 1, 2]) == (2, 1, 1, 0)


def test_two_pending_records_sharing_victim_both_harmful():
    # mru at capacity 2, prefetching on every access: the prefetches of 2 (at the
    # second 3) and of 1 (at the third 3) both evict 3, which came back in between
    # as a prefetch and was hit. The last 3 misses with both pending: two harmful.
    # That miss prefetches 1 again, pending at the end
    assert outcomes([1, 3, 2, 3, 1, 3, 3], ON_EVERY_ACCESS, capacity=2,
                    policy="mru") == (4, 1, 1, 2)


def test_only_pending_records_sharing_a_victim_turn_harmful():
    # three prefetches of 1 evict 0 in turn: the first is hit (useful), the second
    # is evicted by the miss on 2 (useless) and only the third is pending when 0
    # misses (harmful). The prefetch of 0 is hit, and the last prefetch of 1 is
    # pending at the end
    assert outcomes([0, 1, 0, 1, 0, 2, 0, 0], ON_EVERY_ACCESS) == (5, 2, 2, 1)


def replayed_ledger(keys, capacity, policy="lru", top_k=1, pre=None):
    """Replay keys with the prefetcher on; returns (prefetcher, the cache's residents)."""
    fetch = Prefetcher(PrefetchConfig(top_k, 0.0), PredictorConfig(1, 1.0, 1))
    cache = make_cache(CacheConfig(capacity, policy))
    front = cache if pre is None else PreEvictingCache(cache, pre)
    front.replay(keys, fetch=fetch)
    return fetch, set(resident(cache))


def ledger_entries(fetch):
    return sum(len(waiting) for waiting in fetch.by_victim.values())


def test_ledger_stays_bounded_when_victims_never_recur():
    # 40 contexts 100+i each learn their target i; then only contexts are requested.
    # Each context's prefetch of its target evicts older targets, which never come
    # back on demand, so no demand miss ever drops what the ledger holds for them
    rng = random.Random(7)
    warm = [key for _ in range(30) for i in range(40) for key in (100 + i, i)]
    keys = warm + [100 + rng.randrange(40) for _ in range(6000)]
    fetch, held = replayed_ledger(keys, 12)
    distinct, live = len(set(keys)), len(held & fetch.pending.keys())
    assert fetch.issued - len(warm) > 40 * distinct  # one entry per prefetch would not fit
    for size in (len(fetch.pending), len(fetch.by_victim), ledger_entries(fetch)):
        assert size <= distinct + live


@pytest.mark.parametrize("policy", ["fifo", "lifo", "lru", "mru", "arc"])
def test_ledger_by_victim_is_the_inverse_of_pending(policy):
    rng = random.Random(policy)
    for case in range(40):
        keys = gen_markov_trace(case, rng.randint(2, 30), rng.randint(1, 600), 0.8).keys
        pre = None if case % 2 else PreEvictConfig(timer_enabled=True,
                                                   timer_init=rng.randint(1, 20))
        fetch, _ = replayed_ledger(keys, rng.randint(1, 8), policy, rng.randint(1, 3), pre)
        assert all(fetch.pending[key] == victim
                   for victim, waiting in fetch.by_victim.items() for key in waiting)
        assert ledger_entries(fetch) == len(fetch.pending)
        assert fetch.newest is None or fetch.newest[0] not in fetch.pending


@pytest.mark.parametrize("policy", ["fifo", "lifo", "lru", "mru", "arc"])
def test_chunked_prefetch_replay_equals_one_replay(policy):
    # a replay keeps the prefetcher's state in locals and hands it back at the end
    keys = gen_markov_trace(3, 25, 900, 0.8).keys
    pre = PreEvictConfig(halfway_enabled=True, address_space_size=30, timer_enabled=True,
                         timer_init=11)
    runs = []
    for size in (len(keys), 7, 100):
        fetch = Prefetcher(PrefetchConfig(2, 0.05, ON_MISS), PredictorConfig(2, 0.5, 1))
        front = PreEvictingCache(make_cache(CacheConfig(5, policy)), pre)
        hits = sum(front.replay(keys[i:i + size], fetch) for i in range(0, len(keys), size))
        assert fetch.newest is None or fetch.newest[0] not in fetch.pending
        runs.append((hits, fetch.issued, fetch.useful, fetch.harmful, fetch.pending,
                     fetch.newest, resident(front.base), front.timer_evictions,
                     front.halfway_evictions))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][2] and runs[0][3]


def test_coverage_formula():
    assert coverage(0, 40) == 0.0
    assert coverage(30, 70) == 30.0
    assert coverage(0, 0) == 0.0


def test_coverage_bounds():
    for hits, misses in [(0, 0), (1, 0), (0, 1), (5, 3), (100, 1)]:
        value = coverage(hits, misses)
        assert 0.0 <= value <= 100.0
