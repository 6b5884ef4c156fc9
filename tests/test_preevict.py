import dataclasses
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cachelab import PreEvictConfig, PreEvictingCache, simkit
from cachelab.policies import POLICIES, CacheConfig, make_cache
from cachelab.prefetch import ON_EVERY_ACCESS, ON_MISS, PredictorConfig, PrefetchConfig, Prefetcher
from cachelab.simkit import RunConfig
from cachelab.trace import InvalidParam, gen_markov_trace

from reference import book, ref_preevict_run, ref_run_sim, resident

HALFWAY_1000 = PreEvictConfig(halfway_enabled=True, address_space_size=1000)


def holding(keys, config=HALFWAY_1000, capacity=5):
    """A wrapped lru cache with keys placed by demand accesses, those at or above
    halfway first, so that no clearing fires."""
    wrapped = PreEvictingCache(make_cache(CacheConfig(capacity, "lru")), config)
    halfway = config.address_space_size // 2
    for key in sorted(keys, key=lambda key: key < halfway):
        assert wrapped.access(key) == (False, ())
    return wrapped


def test_config_validation():
    with pytest.raises(InvalidParam):
        PreEvictConfig(timer_enabled=True, timer_init=0)
    with pytest.raises(InvalidParam):
        PreEvictConfig(halfway_enabled=True, address_space_size=1)


@pytest.mark.parametrize("policy", POLICIES)
def test_wrapper_refuses_a_base_that_holds_keys(policy):
    # a held key would have no timer, and the wrapper would not report the base's victims
    base = make_cache(CacheConfig(3, policy))
    for key in (1, 2, 3):
        base.access(key)
    timer = PreEvictConfig(timer_enabled=True, timer_init=2)
    with pytest.raises(InvalidParam, match="^the base cache must start empty, got 3 residents$"):
        PreEvictingCache(base, timer)
    assert sorted(base) == [1, 2, 3]  # the refusal leaves the base as it was
    assert PreEvictingCache(make_cache(CacheConfig(3, policy)), timer).access(4) == (False, ())


def test_numpy_timer_init_replays_as_an_int():
    # numpy scalar arithmetic would overflow at the first deadline set
    config = PreEvictConfig(timer_enabled=True, timer_init=np.int64(2**63 - 1))
    cache = PreEvictingCache(make_cache(CacheConfig(2, "lru")), config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.replay([1, 2, 1]) == 1


def test_halfway_filter_clears_low_block():
    wrapped = holding([10, 200, 900])
    _, evicted = wrapped.access(700)
    assert evicted == (10, 200)
    assert resident(wrapped.base) == {700, 900}
    assert wrapped.halfway_evictions == 2


def test_halfway_filter_below_threshold_is_noop():
    wrapped = holding([10, 200, 900])
    hit, evicted = wrapped.access(300)
    assert not hit and evicted == ()
    assert resident(wrapped.base) == {10, 200, 300, 900}
    assert wrapped.halfway_evictions == 0


def test_halfway_filter_empty_low_block():
    wrapped = holding([500, 600, 900])
    _, evicted = wrapped.access(700)
    assert evicted == ()
    assert wrapped.halfway_evictions == 0


def test_halfway_filter_is_pure():
    # the rule only acts on a demand miss: a hit at or above halfway leaves the
    # low block resident, and the next miss up there still clears it
    wrapped = holding([10, 900])
    hit, evicted = wrapped.access(900)
    assert hit and evicted == ()
    assert resident(wrapped.base) == {10, 900}
    assert wrapped.access(700)[1] == (10,)


def test_tick_timers_decrements_and_reports_expiry():
    # T=2: 2 is touched one access before 1, so it runs out one access sooner
    steps = [("access", 2), ("access", 1), ("access", 9), ("access", 9)]
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    outs = [wrapped.access(key) for _, key in steps]
    assert [evicted for _, evicted in outs] == [(), (), (2,), (1,)]
    assert wrapped.timer_evictions == 2
    records = ref_preevict_run(steps, 4, "lru", timer_init=2)
    assert [r[1] for r in records] == [(), (), (2,), (1,)]


def test_tick_timers_empty_cache():
    wrapped = PreEvictingCache(make_cache(CacheConfig(2, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    hit, evicted = wrapped.access(1)
    assert not hit and evicted == ()
    assert wrapped.timer_evictions == 0
    assert ref_preevict_run([("access", 1)], 2, "lru", timer_init=3)[0][1] == ()


def test_timer_skips_keys_that_already_left():
    # T=2: 1 leaves through the base policy before its timer runs out
    wrapped = PreEvictingCache(make_cache(CacheConfig(1, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    wrapped.access(1)
    assert wrapped.access(2)[1] == (1,)
    assert wrapped.access(3)[1] == (2,)
    assert wrapped.timer_evictions == 0
    # T=2: the halfway rule clears 1 at tick 2; its timer would have run out at tick 3
    both = PreEvictConfig(halfway_enabled=True, address_space_size=10,
                          timer_enabled=True, timer_init=2)
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")), both)
    wrapped.access(1)
    assert wrapped.access(7)[1] == (1,)
    assert wrapped.access(8)[1] == ()
    assert (wrapped.timer_evictions, wrapped.halfway_evictions) == (0, 1)


def test_timer_ticks_count_accesses_not_seq():
    # T=3: the timer runs out on the third access after the touch; access takes no clock
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    wrapped.access(7)
    wrapped.access(1)
    wrapped.access(2)
    assert 7 in wrapped.base
    assert 7 in wrapped.access(3)[1]


@pytest.mark.parametrize("policy", POLICIES)
def test_keys_that_expire_together_leave_in_ascending_order(policy):
    # T=3: a prefetching replay ends on a miss of 0 at tick 12 that prefetches 0's
    # successors in rank order, 7 (seen twice), then 5 and 6, so the book holds 0, 7,
    # 5 and 6 with one deadline. A stepped access at tick 15 expires all four.
    wrapped = PreEvictingCache(make_cache(CacheConfig(8, policy)),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    fetch = Prefetcher(PrefetchConfig(3, 0.0), PredictorConfig(1, 0.0, 1))
    wrapped.replay([0, 7, 0, 7, 0, 5, 0, 6, 1, 2, 3, 0], fetch)
    assert list(wrapped.deadlines.items()) == [(2, 13), (3, 14), (0, 15), (7, 15),
                                               (5, 15), (6, 15)]
    assert [wrapped.access(key) for key in (8, 9, 4)] == [
        (False, (2,)), (False, (3,)), (False, (0, 5, 6, 7))]
    assert resident(wrapped.base) == {8, 9, 4}


def test_timer_hit_requeues_key_behind_later_touches():
    # T=3: the hit on 1 at tick 3 moves its deadline past 2's, which comes due first
    wrapped = PreEvictingCache(make_cache(CacheConfig(5, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    for key in [1, 2, 1, 3]:
        assert wrapped.access(key)[1] == ()
    assert wrapped.access(4)[1] == (2,)
    assert wrapped.access(5)[1] == (1,)


def test_timer_expiry_step_count():
    # T=3: inserted by access 0 and never hit again -> gone before access 3 is served
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    wrapped.access(7)
    assert 7 in wrapped.base
    wrapped.access(1)
    assert 7 in wrapped.base
    wrapped.access(2)
    assert 7 in wrapped.base
    _, evicted = wrapped.access(3)
    assert 7 not in wrapped.base
    assert 7 in evicted
    assert wrapped.timer_evictions == 1


def test_timer_reset_on_hit_prevents_expiry():
    # T=3 with a hit every other request never expires
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    for _ in range(30):
        wrapped.access("A")
        wrapped.access("B")
    assert wrapped.timer_evictions == 0
    assert "A" in wrapped.base and "B" in wrapped.base


@pytest.mark.parametrize("policy", POLICIES)
def test_expiring_key_misses_on_its_own_tick(policy):
    # the expiry tick precedes the access, so the re-request is a miss; the key is
    # resident both before and after it, yet reported as evicted
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, policy)),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    wrapped.access(5)
    wrapped.access(6)
    assert wrapped.access(5) == (False, (5,))
    assert resident(wrapped.base) == {5, 6}
    assert wrapped.timer_evictions == 1
    steps = [("access", key) for key in (5, 6, 5)]
    assert ref_preevict_run(steps, 4, policy, timer_init=2)[-1][:2] == (False, (5,))


BOTH_10_3 = PreEvictConfig(halfway_enabled=True, address_space_size=10,
                           timer_enabled=True, timer_init=3)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("key, hit", [(8, False), (9, False), (2, True)])
def test_expiry_and_clearing_in_one_access(policy, key, hit):
    # T=3, halfway 5, a full cache of 9, 1 and 2: at tick 4 the key 9 runs out before
    # the access. A miss at 8 or on 9 itself then clears 1 and 2, and the expiry comes
    # first although 9 is the largest key. No policy victim joins them: each
    # pre-eviction frees the slot that the miss would take. A hit on 2 clears nothing.
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, policy)), BOTH_10_3)
    for held in (9, 1, 2):
        assert wrapped.access(held) == (False, ())
    expected = (9, 1, 2) if not hit else (9,)
    assert wrapped.access(key) == (hit, expected)
    steps = [("access", held) for held in (9, 1, 2, key)]
    record = ref_preevict_run(steps, 3, policy, address_space=10, timer_init=3)[-1]
    assert record == (hit, expected, resident(wrapped.base), 1, 0 if hit else 2)
    assert (wrapped.timer_evictions, wrapped.halfway_evictions) == record[3:]


def test_disabled_wrapper_identical_to_base():
    rng = random.Random(4)
    for policy in POLICIES:
        keys = [rng.randrange(30) for _ in range(400)]
        plain = make_cache(CacheConfig(4, policy))
        wrapped = PreEvictingCache(make_cache(CacheConfig(4, policy)), PreEvictConfig())
        for key in keys:
            assert plain.access(key) == wrapped.access(key), policy


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("config", [
    PreEvictConfig(), PreEvictConfig(timer_enabled=True, timer_init=2), HALFWAY_1000,
], ids=["off", "timer", "halfway"])
def test_policy_replay_gets_the_wrapper_only_with_a_rule_on(monkeypatch, policy, config):
    # both axes off: the wrapper passes pre=None, so the policy takes its plain loop
    base = make_cache(CacheConfig(3, policy))
    wrapped = PreEvictingCache(base, config)
    pres, replay = [], type(base).replay

    def recorder(self, keys, pre=None, fetch=None):
        pres.append(pre)
        return replay(self, keys, pre, fetch)

    monkeypatch.setattr(type(base), "replay", recorder)
    wrapped.replay([1, 2, 1, 3])
    wrapped.access(4)
    assert pres == [None if config == PreEvictConfig() else wrapped] * 2


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("rule", [None, "timer", "halfway"])
def test_access_ignores_a_second_argument(policy, rule):
    # callers written when access took a seq still pass one, and no policy reads it
    rules = {"timer": PreEvictConfig(timer_enabled=True, timer_init=7),
             "halfway": PreEvictConfig(halfway_enabled=True, address_space_size=40)}
    caches = [make_cache(CacheConfig(5, policy)) for _ in range(2)]
    if rule is not None:
        caches = [PreEvictingCache(cache, rules[rule]) for cache in caches]
    rng = random.Random(policy)
    for seq in range(600):
        key = rng.randrange(40)
        assert caches[0].access(key, seq) == caches[1].access(key), (key, seq)
    if rule is None:
        assert book(caches[0]) == book(caches[1])
    else:
        assert wrapper_state(caches[0]) == wrapper_state(caches[1])


def test_halfway_wrap_evicts_then_inserts():
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, "lru")),
                               PreEvictConfig(halfway_enabled=True, address_space_size=1000))
    wrapped.access(100)
    wrapped.access(200)
    hit, evicted = wrapped.access(900)
    assert not hit
    assert set(evicted) == {100, 200}
    assert resident(wrapped.base) == {900}
    assert wrapped.halfway_evictions == 2


def test_halfway_not_applied_on_hit():
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, "lru")),
                               PreEvictConfig(halfway_enabled=True, address_space_size=1000))
    wrapped.access(100)
    wrapped.access(900)  # miss at/above halfway clears 100
    assert 100 not in wrapped.base
    wrapped.access(100)
    hit, evicted = wrapped.access(900)  # hit: no filtering
    assert hit and 100 in wrapped.base
    assert evicted == ()


def test_timer_wrap_steady_alternation_all_hits():
    # period-2 hits with T=3: reset dominates the decrement
    wrapped = PreEvictingCache(make_cache(CacheConfig(2, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    keys = ["A", "B"] * 10
    outcomes = [wrapped.access(key) for key in keys]
    assert all(hit for hit, _ in outcomes[2:])
    assert wrapped.timer_evictions == 0


def test_timer_wrap_period_equal_to_timer_expires():
    # hits arriving exactly every T requests land on the expiry tick and miss
    wrapped = PreEvictingCache(make_cache(CacheConfig(2, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    keys = ["A", "B"] * 6
    outcomes = [wrapped.access(key) for key in keys]
    assert not any(hit for hit, _ in outcomes)
    assert wrapped.timer_evictions == len(keys) - 2


def test_halfway_postcondition_on_random_traces():
    rng = random.Random(8)
    cfg = PreEvictConfig(halfway_enabled=True, address_space_size=100)
    for policy in POLICIES:
        wrapped = PreEvictingCache(make_cache(CacheConfig(5, policy)), cfg)
        for _ in range(1000):
            key = rng.randrange(100)
            hit, _ = wrapped.access(key)
            if not hit and key >= 50:
                assert all(k >= 50 for k in resident(wrapped.base)), policy


def test_timer_bound_on_random_traces():
    # no entry survives timer_init consecutive requests without a hit
    rng = random.Random(12)
    timer_init = 5
    cfg = PreEvictConfig(timer_enabled=True, timer_init=timer_init)
    wrapped = PreEvictingCache(make_cache(CacheConfig(8, "fifo")), cfg)
    last_touch = {}
    for seq in range(2000):
        key = rng.randrange(60)
        for held in resident(wrapped.base):
            assert seq - last_touch[held] <= timer_init
        _, evicted = wrapped.access(key)
        for gone in evicted:
            last_touch.pop(gone, None)
        last_touch[key] = seq


def test_eviction_sets_are_subsets_of_residents():
    rng = random.Random(19)
    cfg = PreEvictConfig(halfway_enabled=True, address_space_size=64,
                         timer_enabled=True, timer_init=4)
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")), cfg)
    for _ in range(1500):
        before = resident(wrapped.base)
        _, evicted = wrapped.access(rng.randrange(64))
        assert len(set(evicted)) == len(evicted)
        assert set(evicted) <= before


def test_wrap_composes_with_arc():
    cfg = PreEvictConfig(halfway_enabled=True, address_space_size=10,
                         timer_enabled=True, timer_init=3)
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, "arc")), cfg)
    for key in [1, 2, 7, 1, 8, 9, 2, 3]:
        hit, _ = wrapped.access(key)
        assert len(resident(wrapped.base)) <= 3
        if not hit and key >= 5:
            assert all(k >= 5 for k in resident(wrapped.base))


@st.composite
def outcome_cases(draw):
    """A base policy, bare or under the timer, the halfway rule or both, and a run
    of demand accesses."""
    base = CacheConfig(draw(st.integers(1, 8)), draw(st.sampled_from(POLICIES)),
                       draw(st.sampled_from(("unit", "ratio"))))
    wrap = draw(st.sampled_from((None, "timer", "halfway", "both")))
    keys = st.integers(0, draw(st.integers(1, 39)))
    return base, wrap, draw(st.lists(keys, max_size=150))


@settings(max_examples=300, deadline=None, database=None)
@given(outcome_cases())
def test_stepped_access_returns_an_exact_tuple(case):
    # run_sim unpacks every outcome; Python 3.11 does so on its fast path only for
    # an exact tuple, not for a subclass such as a NamedTuple
    base, wrap, keys = case
    cache = make_cache(base)
    if wrap is not None:
        cache = PreEvictingCache(cache, PreEvictConfig(
            halfway_enabled=wrap != "timer", address_space_size=40,
            timer_enabled=wrap != "halfway", timer_init=5))
    for key in keys:
        out = cache.access(key)
        assert type(out) is tuple and len(out) == 2, out
        assert type(out[0]) is bool and type(out[1]) is tuple, out


@st.composite
def preevict_cases(draw):
    """A base policy, both, one or neither pre-eviction axis, and a run of demand
    accesses."""
    policy = draw(st.sampled_from(POLICIES))
    adaptation = draw(st.sampled_from(("unit", "ratio")))
    capacity = draw(st.integers(1, 8))
    address_space = draw(st.none() | st.integers(2, 40))
    timer_init = draw(st.none() | st.integers(1, 6) | st.integers(1, 40))
    keys = st.integers(0, draw(st.integers(1, 39)))  # a narrow range brings reuse
    steps = draw(st.lists(st.tuples(st.just("access"), keys), max_size=150))
    return policy, adaptation, capacity, address_space, timer_init, steps


@settings(max_examples=500, deadline=None, database=None)
@given(preevict_cases())
def test_wrapper_matches_naive_oracle_on_every_event(case):
    policy, adaptation, capacity, address_space, timer_init, steps = case
    config = PreEvictConfig(halfway_enabled=address_space is not None,
                            address_space_size=address_space or 0,
                            timer_enabled=timer_init is not None,
                            timer_init=timer_init or 2048)
    wrapped = PreEvictingCache(make_cache(CacheConfig(capacity, policy, adaptation)), config)
    records = ref_preevict_run(steps, capacity, policy, adaptation, address_space, timer_init)
    for seq, ((_, key), record) in enumerate(zip(steps, records)):
        hit, evicted, held, timer_evictions, halfway_evictions = record
        assert wrapped.access(key) == (hit, evicted), (key, seq)
        assert resident(wrapped.base) == held
        if timer_init is not None:  # the timer book holds exactly the residents
            assert set(wrapped.deadlines) == held
        assert wrapped.timer_evictions == timer_evictions
        assert wrapped.halfway_evictions == halfway_evictions


@st.composite
def wrapper_replay_cases(draw):
    """A wrapped cache config with both, one or neither pre-eviction axis, and a
    demand key run."""
    capacity = draw(st.integers(1, 8))
    base = CacheConfig(capacity, draw(st.sampled_from(POLICIES)),
                       draw(st.sampled_from(("unit", "ratio"))))
    halfway, timer = draw(st.booleans()), draw(st.booleans())
    config = PreEvictConfig(halfway_enabled=halfway,
                            address_space_size=draw(st.integers(2, 40)),
                            timer_enabled=timer,
                            timer_init=draw(st.integers(1, 3 * capacity + 5)))
    keys = st.integers(0, draw(st.integers(1, 39)))  # a narrow range brings reuse
    return base, config, draw(st.lists(keys, max_size=150))


def wrapper_state(wrapped):
    return (book(wrapped.base), list(wrapped.deadlines.items()), wrapped.low, wrapped.ticks,
            wrapped.timer_evictions, wrapped.halfway_evictions)


@settings(max_examples=500, deadline=None, database=None)
@given(wrapper_replay_cases())
def test_wrapper_replay_equals_stepped_access(case):
    base, config, keys = case
    replayed, stepped = (PreEvictingCache(make_cache(base), config) for _ in range(2))
    outs = [stepped.access(key) for key in keys]
    hits = sum(hit for hit, _ in outs)
    evictions = sum(len(evicted) for _, evicted in outs)
    assert replayed.replay(iter(keys)) == hits
    assert evictions == len(keys) - hits - len(stepped.base)
    assert wrapper_state(replayed) == wrapper_state(stepped)
    if config.timer_enabled:
        assert set(replayed.deadlines) == resident(replayed.base)


@st.composite
def chunked_replay_cases(draw):
    """A wrapped cache config with one or both pre-eviction axes on, a demand key run
    cut into 1-4 chunks, and a tail of demand keys."""
    capacity = draw(st.integers(1, 8))
    base = CacheConfig(capacity, draw(st.sampled_from(POLICIES)),
                       draw(st.sampled_from(("unit", "ratio"))))
    halfway, timer = draw(st.sampled_from(((True, False), (False, True), (True, True))))
    config = PreEvictConfig(halfway_enabled=halfway,
                            address_space_size=draw(st.integers(2, 40)),
                            timer_enabled=timer,
                            timer_init=draw(st.integers(1, 3 * capacity + 5)))
    keys = st.integers(0, draw(st.integers(1, 39)))
    chunks = st.lists(keys, max_size=60)
    return (base, config, draw(st.lists(chunks, min_size=1, max_size=4)),
            draw(st.lists(keys, max_size=40)))


def assert_due_bounds_book(wrapped):
    # a replay takes its first due tick from the book's head, so the book's deadlines
    # must run in touch order, each after the last tick and at most timer_init past it
    if wrapped.deadlines:
        due = list(wrapped.deadlines.values())
        assert wrapped.ticks < due[0] and due == sorted(due)
        assert due[-1] <= wrapped.ticks + wrapped._timer_init


@settings(max_examples=500, deadline=None, database=None)
@given(chunked_replay_cases())
def test_chunked_replay_then_access_equals_stepped_access(case):
    # The book is lazy only within a replay: what a later replay or access reads
    # of it must be what stepping every key would have left.
    base, config, chunks, tail = case
    replayed, stepped = (PreEvictingCache(make_cache(base), config) for _ in range(2))
    for keys in chunks:
        hits = sum(hit for hit, _ in map(stepped.access, keys))
        assert replayed.replay(keys) == hits
        assert wrapper_state(replayed) == wrapper_state(stepped)
        assert_due_bounds_book(replayed)
    for key in tail:
        assert replayed.access(key) == stepped.access(key)
        assert_due_bounds_book(replayed)
    assert wrapper_state(replayed) == wrapper_state(stepped)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("halfway,timer", [(True, False), (False, True), (True, True)])
def test_wrapper_replay_makes_no_call_into_its_base(policy, halfway, timer):
    def refuse(*args):
        raise AssertionError("the wrapper's replay stepped its base")

    config = PreEvictConfig(halfway_enabled=halfway, address_space_size=64,
                            timer_enabled=timer, timer_init=12)
    rng = random.Random(7)
    keys = [rng.randrange(64) for _ in range(2000)]
    replayed, stepped = (PreEvictingCache(make_cache(CacheConfig(16, policy)), config)
                         for _ in range(2))
    replayed.base.access = refuse
    hits = sum(hit for hit, _ in map(stepped.access, keys))
    assert replayed.replay(keys) == hits
    assert wrapper_state(replayed) == wrapper_state(stepped)
    assert (replayed.halfway_evictions > 0) == halfway
    assert (replayed.timer_evictions > 0) == timer


@st.composite
def timer_seam_cases(draw):
    """Every policy and ARC adaptation, the timer and the halfway rule each on or off,
    with no prefetcher or a top-1 or top-k one on either trigger; a trace cut into
    chunks, and a timer_init of 1, 2, just below, at or just above a chunk's length,
    or past the trace's."""
    num_keys = draw(st.integers(2, 16))
    keys = draw(st.lists(st.integers(0, num_keys - 1), max_size=80)
                | st.builds(lambda *args: gen_markov_trace(*args).keys,
                            st.integers(0, 99), st.just(num_keys), st.integers(1, 80),
                            st.sampled_from((0.5, 0.9))))
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=3)))
    chunks = [keys[i:j] for i, j in zip([0, *cuts], [*cuts, len(keys)])]
    inits = {1, 2, len(keys) + 1, len(keys) + 50}
    inits |= {len(chunk) + d for chunk in chunks for d in (-1, 0, 1) if len(chunk) + d > 0}
    pre = PreEvictConfig(halfway_enabled=draw(st.booleans()),
                         address_space_size=draw(st.integers(2, 2 * num_keys + 2)),
                         timer_enabled=draw(st.booleans()),
                         timer_init=draw(st.sampled_from(sorted(inits))))
    cache = CacheConfig(draw(st.integers(1, 6)), draw(st.sampled_from(POLICIES)),
                        draw(st.sampled_from(("unit", "ratio"))))
    prefetch = draw(st.none() | st.builds(PrefetchConfig, st.sampled_from((1, 3)),
                                          st.sampled_from((0.0, 0.25)),
                                          st.sampled_from((ON_MISS, ON_EVERY_ACCESS))))
    predictor = PredictorConfig(draw(st.integers(1, 2)), 0.0, draw(st.integers(1, 2)))
    return keys, chunks, RunConfig(cache=cache, pre=pre, prefetch=prefetch,
                                   predictor=predictor, label="run")


def run_in(config, parts, keys):
    """The report and the wrapper after replaying each part in turn under config."""
    run = simkit._Run(config)
    for part in parts:
        run.replay(part)
    return dataclasses.asdict(run.report(len(keys), len(set(keys)))), run.front


@settings(max_examples=500, deadline=None, database=None)
@given(timer_seam_cases())
def test_whole_cut_and_stepped_replays_equal_the_oracle(case):
    # the timer reads each replay's key column T keys behind and queues only what the
    # column does not log (the carried book and prefetches); wherever the replays are
    # cut, the report, the book, the timer book and the wrapper's state are the
    # oracle's and the same
    keys, chunks, config = case
    books = []
    expected = ref_run_sim(keys, config, book_log=books)
    states = []
    for parts in ([keys], chunks, [[key] for key in keys]):
        report, wrapped = run_in(config, parts, keys)
        assert report == expected
        assert book(wrapped.base) == books[0]
        assert list(wrapped.deadlines.items()) == books[1]
        assert_due_bounds_book(wrapped)
        states.append(wrapper_state(wrapped))
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("timer_init", [2**63, 10**30])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("top_k", [None, 1, 3])
def test_a_timer_longer_than_the_trace_expires_nothing(timer_init, policy, top_k):
    # the lagged read pads the column with at most one sentinel per key, so no T is
    # too long: whole, cut and stepped, the run is the untimed one and nothing expires
    keys = gen_markov_trace(4, 12, 200, 0.5).keys
    fetch = {} if top_k is None else dict(prefetch=PrefetchConfig(top_k, 0.0, ON_EVERY_ACCESS),
                                          predictor=PredictorConfig(1, 0.0, 1))
    plain = RunConfig(cache=CacheConfig(4, policy), label="run", **fetch)
    timed = dataclasses.replace(plain, pre=PreEvictConfig(timer_enabled=True,
                                                          timer_init=timer_init))
    expected, _ = run_in(plain, [keys], keys)
    for parts in ([keys], [keys[:70], keys[70:]], [[key] for key in keys]):
        report, wrapped = run_in(timed, parts, keys)
        assert report == expected and wrapped.timer_evictions == 0
        assert set(wrapped.deadlines) == resident(wrapped.base)
    stepped = PreEvictingCache(make_cache(CacheConfig(2, policy)), timed.pre)
    assert [stepped.access(key) for key in (1, 2, 1)] == [(False, ()), (False, ()), (True, ())]


def ranked_successor(top_k=1):
    """Prefetch, on a miss, the successors seen after the missed key."""
    return Prefetcher(PrefetchConfig(top_k, 0.0, ON_MISS), PredictorConfig(1, 0.0, 1))


def residents_after_each(wrapped, keys, fetch=None):
    """The sorted residents after each key's one-key replay."""
    out = []
    for key in keys:
        wrapped.replay([key], fetch)
        out.append(sorted(resident(wrapped.base)))
    return out


@pytest.mark.parametrize("policy", ("fifo", "lru", "arc"))
def test_a_prefetched_key_touched_before_its_deadline_leaves_at_the_touchs(policy):
    # T=6, capacity 3: the miss on 1 at tick 5 prefetches 2 (deadline 11), and the hit
    # on 2 at tick 6 touches it again (deadline 12). The queued deadline 11 is stale: 2
    # stays through tick 11 and leaves at tick 12, read from the key column. Stepped,
    # the end of each replay drops the stale entry; in one replay through tick 11 the
    # queue itself must pass over it.
    keys = [1, 2, 3, 4, 1, 2, 1, 1, 1, 1, 1, 1]
    config = PreEvictConfig(timer_enabled=True, timer_init=6)
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, policy)), config)
    fetch = ranked_successor()
    held = residents_after_each(wrapped, keys, fetch)
    assert fetch.issued == 1 and fetch.useful == 1
    assert held[10] == [1, 2] and held[11] == [1]
    whole = PreEvictingCache(make_cache(CacheConfig(3, policy)), config)
    fetch = ranked_successor()
    whole.replay(keys[:11], fetch)
    assert sorted(resident(whole.base)) == [1, 2] and whole.timer_evictions == 1
    whole.replay(keys[11:], fetch)
    assert wrapper_state(whole) == wrapper_state(wrapped)
    assert whole.timer_evictions == 2  # 4 at tick 10, 2 at tick 12
    assert list(whole.deadlines.items()) == [(1, 18)]


@pytest.mark.parametrize("policy", POLICIES)
def test_a_victim_missed_again_before_its_old_deadline_keeps_the_new_one(policy):
    # T=4, capacity 2: 1 (touched at tick 1) is the victim of 3 under fifo and lru and
    # misses again at tick 4, so the lagged read of 1 at tick 5 is stale; 1 leaves at
    # tick 8 if it is still resident then
    keys = [1, 2, 3, 1, 3, 3, 3, 3]
    config = PreEvictConfig(timer_enabled=True, timer_init=4)
    steps = [("access", key) for key in keys]
    records = ref_preevict_run(steps, 2, policy, timer_init=4)
    whole = PreEvictingCache(make_cache(CacheConfig(2, policy)), config)
    whole.replay(keys)
    assert whole.timer_evictions == records[-1][3]
    assert resident(whole.base) == records[-1][2]
    if policy in ("fifo", "lru"):
        assert [1 in held for _, _, held, _, _ in records] == [
            True, True, False, True, True, True, True, False]
    stepped = PreEvictingCache(make_cache(CacheConfig(2, policy)), config)
    assert [stepped.access(key) for key in keys] == [record[:2] for record in records]
    assert wrapper_state(stepped) == wrapper_state(whole)


def test_a_cleared_key_inserted_again_keeps_its_new_deadline():
    # T=4, halfway 5: the miss on 7 at tick 2 clears 1, which misses back in at tick 3
    # (deadline 7). Its first touch's deadline, 5, is stale: 1 stays until tick 7.
    keys = [1, 7, 1, 7, 7, 7, 7]
    config = PreEvictConfig(halfway_enabled=True, address_space_size=10,
                            timer_enabled=True, timer_init=4)
    stepped = PreEvictingCache(make_cache(CacheConfig(4, "lru")), config)
    assert [stepped.access(key) for key in keys] == [
        (False, ()), (False, (1,)), (False, ()), (True, ()), (True, ()), (True, ()),
        (True, (1,))]
    whole = PreEvictingCache(make_cache(CacheConfig(4, "lru")), config)
    assert whole.replay(keys) == 4
    assert wrapper_state(whole) == wrapper_state(stepped)
    assert (whole.timer_evictions, whole.halfway_evictions) == (1, 1)
    assert list(whole.deadlines.items()) == [(7, 11)]


@pytest.mark.parametrize("policy", POLICIES)
def test_a_carried_touch_expires_on_the_first_tick_of_the_next_replay(policy):
    # T=2: 1 (tick 1) comes due at tick 3, the first tick of the second replay, where
    # only the carried book holds its touch. 2 (tick 2) is touched again at tick 3, so
    # its carried deadline 4 is stale, and it leaves at tick 5, the first tick of the
    # third replay, from a book that the second replay's key column made.
    config = PreEvictConfig(timer_enabled=True, timer_init=2)
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, policy)), config)
    assert wrapped.replay([1, 2]) == 0
    assert list(wrapped.deadlines.items()) == [(1, 3), (2, 4)]
    assert wrapped.replay([2, 3]) == 1
    assert wrapped.timer_evictions == 1
    assert list(wrapped.deadlines.items()) == [(2, 5), (3, 6)]
    assert wrapped.replay([4]) == 0
    assert resident(wrapped.base) == {3, 4} and wrapped.timer_evictions == 2
    assert wrapped.access(5) == (False, (3,))
    steps = [("access", key) for key in (1, 2, 2, 3, 4, 5)]
    assert [record[1] for record in ref_preevict_run(steps, 4, policy, timer_init=2)] == [
        (), (), (1,), (), (2,), (3,)]
