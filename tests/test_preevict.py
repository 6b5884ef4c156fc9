import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab.policies import POLICIES, CacheConfig, make_cache
from cachelab.preevict import PreEvictConfig, PreEvictingCache
from cachelab.trace import InvalidParam

from reference import ref_preevict_run

HALFWAY_1000 = PreEvictConfig(halfway_enabled=True, address_space_size=1000)


def holding(keys, config=HALFWAY_1000, capacity=5):
    """A wrapped lru cache with keys placed by prefetch insertion, which never
    applies the halfway rule."""
    wrapped = PreEvictingCache(make_cache(CacheConfig(capacity, "lru")), config)
    for seq, key in enumerate(keys):
        wrapped.insert(key, seq, True)
    return wrapped


def test_config_validation():
    with pytest.raises(InvalidParam):
        PreEvictConfig(timer_enabled=True, timer_init=0)
    with pytest.raises(InvalidParam):
        PreEvictConfig(halfway_enabled=True, address_space_size=1)
    assert not PreEvictConfig().enabled
    assert PreEvictConfig(timer_enabled=True).enabled


def test_halfway_filter_clears_low_block():
    wrapped = holding([10, 200, 900])
    out = wrapped.access(700, 3)
    assert out.evicted == (10, 200)
    assert set(wrapped.base.entries) == {700, 900}
    assert wrapped.halfway_evictions == 2


def test_halfway_filter_below_threshold_is_noop():
    wrapped = holding([10, 200, 900])
    out = wrapped.access(300, 3)
    assert not out.hit and out.evicted == ()
    assert set(wrapped.base.entries) == {10, 200, 300, 900}
    assert wrapped.halfway_evictions == 0


def test_halfway_filter_empty_low_block():
    wrapped = holding([500, 600, 900])
    out = wrapped.access(700, 3)
    assert out.evicted == ()
    assert wrapped.halfway_evictions == 0


def test_halfway_filter_is_pure():
    # the rule only acts on a demand miss: a hit at or above halfway leaves the
    # low block resident, and the next miss up there still clears it
    wrapped = holding([10, 900])
    out = wrapped.access(900, 2)
    assert out.hit and out.evicted == ()
    assert set(wrapped.base.entries) == {10, 900}
    assert wrapped.access(700, 3).evicted == (10,)


def test_tick_timers_decrements_and_reports_expiry():
    # T=2: 2 is touched one access before 1, so it runs out one access sooner
    steps = [("access", 2), ("access", 1), ("access", 9), ("access", 9)]
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    outs = [wrapped.access(key, seq) for seq, (_, key) in enumerate(steps)]
    assert [out.evicted for out in outs] == [(), (), (2,), (1,)]
    assert wrapped.timer_evictions == 2
    records = ref_preevict_run(steps, 4, "lru", timer_init=2)
    assert [r[1] for r in records] == [(), (), (2,), (1,)]


def test_tick_timers_empty_cache():
    wrapped = PreEvictingCache(make_cache(CacheConfig(2, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    out = wrapped.access(1, 0)
    assert not out.hit and out.evicted == ()
    assert wrapped.timer_evictions == 0
    assert ref_preevict_run([("access", 1)], 2, "lru", timer_init=3)[0][1] == ()


def test_timer_skips_keys_that_already_left():
    # T=2: 1 leaves through the base policy before its timer runs out
    wrapped = PreEvictingCache(make_cache(CacheConfig(1, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    wrapped.access(1, 0)
    assert wrapped.access(2, 1).evicted == (1,)
    assert wrapped.access(3, 2).evicted == (2,)
    assert wrapped.timer_evictions == 0
    # T=2: the halfway rule clears 1 at tick 2; its timer would have run out at tick 3
    both = PreEvictConfig(halfway_enabled=True, address_space_size=10,
                          timer_enabled=True, timer_init=2)
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")), both)
    wrapped.access(1, 0)
    assert wrapped.access(7, 1).evicted == (1,)
    assert wrapped.access(8, 2).evicted == ()
    assert (wrapped.timer_evictions, wrapped.halfway_evictions) == (0, 1)


def test_timer_ticks_count_accesses_not_seq():
    # T=3 with seq jumping by 100: the timer still runs out on the third access
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    wrapped.access(7, 0)
    wrapped.access(1, 100)
    wrapped.access(2, 200)
    assert 7 in wrapped.base.entries
    assert 7 in wrapped.access(3, 300).evicted


def test_prefetch_insert_sets_timer_without_ticking():
    # T=2: inserts after the first access neither tick nor outlive its timer
    wrapped = PreEvictingCache(make_cache(CacheConfig(8, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    wrapped.access(1, 0)
    for key in (15, 12, 14, 11, 13):
        wrapped.insert(key, 0, True)
    assert wrapped.access(2, 1).evicted == ()
    assert wrapped.access(3, 2).evicted == (1, 11, 12, 13, 14, 15)
    assert wrapped.timer_evictions == 6


def test_timer_hit_requeues_key_behind_later_touches():
    # T=3: the hit on 1 at tick 3 moves its deadline past 2's, which comes due first
    wrapped = PreEvictingCache(make_cache(CacheConfig(5, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    for seq, key in enumerate([1, 2, 1, 3]):
        assert wrapped.access(key, seq).evicted == ()
    assert wrapped.access(4, 4).evicted == (2,)
    assert wrapped.access(5, 5).evicted == (1,)


def test_timer_expiry_step_count():
    # T=3: inserted at seq 0 and never hit again -> gone before seq 3 is served
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    wrapped.access(7, 0)
    assert 7 in wrapped.base.entries
    wrapped.access(1, 1)
    assert 7 in wrapped.base.entries
    wrapped.access(2, 2)
    assert 7 in wrapped.base.entries
    out = wrapped.access(3, 3)
    assert 7 not in wrapped.base.entries
    assert 7 in out.evicted
    assert wrapped.timer_evictions == 1


def test_timer_reset_on_hit_prevents_expiry():
    # T=3 with a hit every other request never expires
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    seq = 0
    for _ in range(30):
        wrapped.access("A", seq)
        wrapped.access("B", seq + 1)
        seq += 2
    assert wrapped.timer_evictions == 0
    assert "A" in wrapped.base.entries and "B" in wrapped.base.entries


def test_expiring_key_misses_on_its_own_tick():
    # the expiry tick precedes the access, so the re-request is a miss
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    wrapped.access(5, 0)
    wrapped.access(6, 1)
    out = wrapped.access(5, 2)
    assert not out.hit
    assert 5 in out.evicted  # expired this tick, then reinserted


def test_disabled_wrapper_identical_to_base():
    rng = random.Random(4)
    for policy in POLICIES:
        keys = [rng.randrange(30) for _ in range(400)]
        plain = make_cache(CacheConfig(4, policy))
        wrapped = PreEvictingCache(make_cache(CacheConfig(4, policy)), PreEvictConfig())
        for seq, key in enumerate(keys):
            assert plain.access(key, seq) == wrapped.access(key, seq), policy


def test_halfway_wrap_evicts_then_inserts():
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, "lru")),
                               PreEvictConfig(halfway_enabled=True, address_space_size=1000))
    wrapped.access(100, 0)
    wrapped.access(200, 1)
    out = wrapped.access(900, 2)
    assert not out.hit
    assert set(out.evicted) == {100, 200}
    assert set(wrapped.base.entries) == {900}
    assert wrapped.halfway_evictions == 2


def test_halfway_not_applied_on_hit():
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, "lru")),
                               PreEvictConfig(halfway_enabled=True, address_space_size=1000))
    wrapped.access(100, 0)
    wrapped.access(900, 1)  # miss at/above halfway clears 100
    assert 100 not in wrapped.base.entries
    wrapped.access(100, 2)
    out = wrapped.access(900, 3)  # hit: no filtering
    assert out.hit and 100 in wrapped.base.entries
    assert out.evicted == ()


def test_timer_wrap_steady_alternation_all_hits():
    # period-2 hits with T=3: reset dominates the decrement
    wrapped = PreEvictingCache(make_cache(CacheConfig(2, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=3))
    keys = ["A", "B"] * 10
    outcomes = [wrapped.access(key, seq) for seq, key in enumerate(keys)]
    assert all(out.hit for out in outcomes[2:])
    assert wrapped.timer_evictions == 0


def test_timer_wrap_period_equal_to_timer_expires():
    # hits arriving exactly every T requests land on the expiry tick and miss
    wrapped = PreEvictingCache(make_cache(CacheConfig(2, "lru")),
                               PreEvictConfig(timer_enabled=True, timer_init=2))
    keys = ["A", "B"] * 6
    outcomes = [wrapped.access(key, seq) for seq, key in enumerate(keys)]
    assert not any(out.hit for out in outcomes)
    assert wrapped.timer_evictions == len(keys) - 2


def test_halfway_postcondition_on_random_traces():
    rng = random.Random(8)
    cfg = PreEvictConfig(halfway_enabled=True, address_space_size=100)
    for policy in POLICIES:
        wrapped = PreEvictingCache(make_cache(CacheConfig(5, policy)), cfg)
        for seq in range(1000):
            key = rng.randrange(100)
            out = wrapped.access(key, seq)
            if not out.hit and key >= 50:
                assert all(k >= 50 for k in wrapped.base.entries), policy


def test_timer_bound_on_random_traces():
    # no entry survives timer_init consecutive requests without a hit
    rng = random.Random(12)
    timer_init = 5
    cfg = PreEvictConfig(timer_enabled=True, timer_init=timer_init)
    wrapped = PreEvictingCache(make_cache(CacheConfig(8, "fifo")), cfg)
    last_touch = {}
    for seq in range(2000):
        key = rng.randrange(60)
        for resident in wrapped.base.entries:
            assert seq - last_touch[resident] <= timer_init
        out = wrapped.access(key, seq)
        for gone in out.evicted:
            last_touch.pop(gone, None)
        last_touch[key] = seq


def test_eviction_sets_are_subsets_of_residents():
    rng = random.Random(19)
    cfg = PreEvictConfig(halfway_enabled=True, address_space_size=64,
                         timer_enabled=True, timer_init=4)
    wrapped = PreEvictingCache(make_cache(CacheConfig(4, "lru")), cfg)
    for seq in range(1500):
        before = set(wrapped.base.entries)
        out = wrapped.access(rng.randrange(64), seq)
        evicted = set(out.evicted)
        assert len(evicted) == len(out.evicted)
        assert evicted <= before


def test_wrap_composes_with_arc():
    cfg = PreEvictConfig(halfway_enabled=True, address_space_size=10,
                         timer_enabled=True, timer_init=3)
    wrapped = PreEvictingCache(make_cache(CacheConfig(3, "arc")), cfg)
    for seq, key in enumerate([1, 2, 7, 1, 8, 9, 2, 3]):
        out = wrapped.access(key, seq)
        assert len(wrapped.base.entries) <= 3
        if not out.hit and key >= 5:
            assert all(k >= 5 for k in wrapped.base.entries)


@st.composite
def preevict_cases(draw):
    """A base policy, both, one or neither pre-eviction axis, and a run of demand
    accesses with prefetch insertions between them, at non-consecutive seqs."""
    policy = draw(st.sampled_from(POLICIES))
    adaptation = draw(st.sampled_from(("unit", "ratio")))
    capacity = draw(st.integers(1, 8))
    address_space = draw(st.none() | st.integers(2, 40))
    timer_init = draw(st.none() | st.integers(1, 6) | st.integers(1, 40))
    ops = st.sampled_from(("access", "access", "insert"))
    keys = st.integers(0, draw(st.integers(1, 39)))  # a narrow range brings reuse
    steps = draw(st.lists(st.tuples(ops, keys), max_size=150))
    gaps = draw(st.lists(st.integers(0, 50), min_size=len(steps), max_size=len(steps)))
    seqs = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    return policy, adaptation, capacity, address_space, timer_init, steps, seqs


@settings(max_examples=500, deadline=None, database=None)
@given(preevict_cases())
def test_wrapper_matches_naive_oracle_on_every_event(case):
    policy, adaptation, capacity, address_space, timer_init, steps, seqs = case
    config = PreEvictConfig(halfway_enabled=address_space is not None,
                            address_space_size=address_space or 0,
                            timer_enabled=timer_init is not None,
                            timer_init=timer_init or 2048)
    wrapped = PreEvictingCache(make_cache(CacheConfig(capacity, policy, adaptation)), config)
    records = ref_preevict_run(steps, capacity, policy, adaptation, address_space, timer_init)
    for (op, key), seq, record in zip(steps, seqs, records):
        hit, evicted, prefetched_hit, resident, timer_evictions, halfway_evictions = record
        if op == "insert":
            present = key in wrapped.base.entries
            got = (None, () if present else wrapped.insert(key, seq, True), False)
        else:
            out = wrapped.access(key, seq)
            got = (out.hit, out.evicted, out.was_prefetched_hit)
        assert got == (hit, evicted, prefetched_hit), (op, key, seq)
        assert set(wrapped.base.entries) == resident
        assert wrapped.timer_evictions == timer_evictions
        assert wrapped.halfway_evictions == halfway_evictions
