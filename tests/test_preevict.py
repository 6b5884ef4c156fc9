import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import PreEvictConfig, PreEvictingCache
from cachelab.policies import POLICIES, CacheConfig, make_cache
from cachelab.prefetch import PredictorConfig, PrefetchConfig, Prefetcher
from cachelab.trace import InvalidParam

from reference import book, ref_preevict_run, resident

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
    assert not PreEvictConfig().enabled
    assert PreEvictConfig(timer_enabled=True).enabled


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
    if wrapped.deadlines:
        assert wrapped._due <= min(wrapped.deadlines.values())


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
