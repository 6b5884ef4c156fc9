import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab.prefetch import (
    MarkovPredictor,
    PredictorConfig,
    PrefetchConfig,
    PrefetchLog,
    PrefetchStats,
    coverage,
    decide_prefetch,
)
from cachelab.trace import InvalidParam, gen_markov_trace

from reference import ref_prefetch_ledger


def feed(pred, keys):
    for key in keys:
        pred.observe(key)


def test_observe_order1_counts():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    feed(pred, ["A", "B", "A", "B"])
    assert pred.counts == {("A",): {"B": 2}, ("B",): {"A": 1}}


def test_observe_order2_counts():
    pred = MarkovPredictor(order=2, alpha=0, min_support=0)
    feed(pred, ["A", "B", "C"])
    assert pred.counts == {("A", "B"): {"C": 1}}


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
    for ctx, successors in pred.counts.items():
        ranked = pred.predict_next(ctx, len(successors))
        assert pred.predict_next(ctx, 1) == ranked[:1]
        assert [successors[k] for k, _ in ranked] == sorted(successors.values(), reverse=True)


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
    assert a.counts == b.counts and a.context == b.context
    assert a.predict_next((1,), 3) == b.predict_next((1,), 3)


def test_module_level_wrappers():
    pred = MarkovPredictor(order=1, alpha=0, min_support=0)
    pred.observe("A")
    pred.observe("B")
    assert pred.predict_next(("A",), 1) == [("B", 1.0)]


@pytest.mark.parametrize("kwargs", [
    {"alpha": math.nan}, {"alpha": math.inf}, {"alpha": -1.0}, {"order": 3}, {"min_support": -1},
])
def test_predictor_config_rejects_bad_params(kwargs):
    with pytest.raises(InvalidParam):
        PredictorConfig(**kwargs)


def test_predictor_param_validation():
    with pytest.raises(InvalidParam):
        MarkovPredictor(order=3)
    with pytest.raises(InvalidParam):
        MarkovPredictor(alpha=-1)
    with pytest.raises(InvalidParam):
        MarkovPredictor(min_support=-1)
    for alpha in (math.nan, math.inf):
        with pytest.raises(InvalidParam):
            MarkovPredictor(alpha=alpha)
    with pytest.raises(InvalidParam):
        PrefetchConfig(top_k=0)
    with pytest.raises(InvalidParam):
        PrefetchConfig(p_min=1.5)
    with pytest.raises(InvalidParam):
        PrefetchConfig(trigger="sometimes")


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


def outcomes(log):
    return log.stats.useful, log.stats.useless, log.stats.harmful


def test_record_useful_on_demand_hit():
    log = PrefetchLog()
    log.issue("K", victim=None)
    assert log.stats.issued == 1 and outcomes(log) == (0, 0, 0)
    log.demand_hit("K")
    assert outcomes(log) == (1, 0, 0)


def test_record_useless_on_untouched_eviction():
    log = PrefetchLog()
    log.issue("K", victim="V")
    log.evicted("K")
    assert outcomes(log) == (0, 1, 0)
    log.demand_hit("K")  # too late: already resolved
    assert outcomes(log) == (0, 1, 0)


def test_record_harmful_on_victim_miss():
    log = PrefetchLog()
    log.issue("K", victim="V")
    log.demand_miss("V")
    assert outcomes(log) == (0, 0, 1)
    assert log.stats == PrefetchStats(issued=1, harmful=1)  # the run counts its misses


def test_harmful_requires_pending():
    log = PrefetchLog()
    log.issue("K", victim="V")
    log.demand_hit("K")
    log.demand_miss("V")
    assert outcomes(log) == (1, 0, 0)


def test_each_record_resolves_exactly_once():
    log = PrefetchLog()
    log.issue("K", victim="V")
    log.demand_miss("V")
    log.evicted("K")
    log.demand_hit("K")
    assert outcomes(log) == (0, 0, 1)


def test_finalize_resolves_pending_as_useless():
    log = PrefetchLog()
    log.issue("A")
    log.issue("B")
    log.demand_hit("A")
    log.finalize()
    assert outcomes(log) == (1, 1, 0)
    s = log.stats
    assert s.useful + s.useless + s.harmful == s.issued == 2


def test_reissue_after_eviction_gets_fresh_record():
    log = PrefetchLog()
    log.issue("K")
    log.evicted("K")
    log.issue("K")
    log.demand_hit("K")
    assert outcomes(log) == (1, 1, 0)
    assert log.stats.issued == 2


def test_two_pending_records_sharing_victim_both_harmful():
    log = PrefetchLog()
    log.issue("K1", victim="V")
    log.issue("K2", victim="V")
    log.demand_miss("V")
    assert outcomes(log) == (0, 0, 2)


def test_only_pending_records_sharing_a_victim_turn_harmful():
    log = PrefetchLog()
    log.issue("K1", victim="V")
    log.issue("K2", victim="V")
    log.issue("K3", victim="V")
    log.demand_hit("K2")
    log.evicted("K3")
    log.demand_miss("V")
    assert outcomes(log) == (1, 1, 1)


def test_settled_prefetches_leave_the_victim_index():
    for settle in (PrefetchLog.demand_hit, PrefetchLog.evicted):
        log = PrefetchLog()
        log.issue("K", victim="V")
        settle(log, "K")
        assert not log._pending and not log._by_victim, settle.__name__


LEDGER_KEYS = st.integers(0, 5)
LEDGER_STEPS = st.one_of(
    st.tuples(st.just("issue"), LEDGER_KEYS, st.none() | LEDGER_KEYS),
    st.tuples(st.sampled_from(("demand_hit", "demand_miss", "evicted")), LEDGER_KEYS,
              st.none()),
)


@settings(max_examples=500, deadline=None, database=None)
@given(st.lists(LEDGER_STEPS, max_size=60))
def test_ledger_matches_naive_oracle(steps):
    taken, expected = ref_prefetch_ledger(steps)
    log = PrefetchLog()
    misses = 0  # run_sim counts demand misses itself, as here
    for op, key, victim in taken:
        if op == "issue":
            log.issue(key, victim)
        else:
            misses += op == "demand_miss"
            getattr(log, op)(key)
    log.finalize()
    s = log.stats
    assert (s.issued, s.useful, s.useless, s.harmful, misses) == expected


def test_coverage_formula():
    assert coverage(0, 40) == 0.0
    assert coverage(30, 70) == 30.0
    assert coverage(0, 0) == 0.0


def test_coverage_bounds():
    for hits, misses in [(0, 0), (1, 0), (0, 1), (5, 3), (100, 1)]:
        value = coverage(hits, misses)
        assert 0.0 <= value <= 100.0
