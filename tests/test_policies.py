import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab.policies import (
    POLICIES,
    AccessOutcome,
    ArcState,
    CacheConfig,
    CacheState,
    make_cache,
)
from cachelab.trace import InvalidParam, letter_key

from reference import ref_arc_run, ref_lru_order, ref_policy_run

REF_12 = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
REF_10 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3]
REF_20 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]
ARC_SEQ = [0, 1, 2, 3, 0, 4, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 4, 3]


def run_policy(keys, capacity, policy, adaptation="unit"):
    cache = make_cache(CacheConfig(capacity, policy, adaptation))
    hits = misses = 0
    outcomes = []
    for seq, key in enumerate(keys):
        out = cache.access(key, seq)
        if out.hit:
            hits += 1
            outcomes.append("H")
        else:
            misses += 1
            outcomes.append("M")
    return cache, hits, misses, outcomes


def test_config_validation():
    with pytest.raises(InvalidParam):
        CacheConfig(0, "lru")
    with pytest.raises(InvalidParam):
        CacheConfig(4, "clock")
    with pytest.raises(InvalidParam):
        CacheConfig(4, "arc", arc_adaptation="half")


def test_lru_reference_string():
    # frozen from the hand-step oracle: 8 misses, 4 hits, residents {2,3,4,5}
    cache, hits, misses, outcomes = run_policy(REF_12, 4, "lru")
    assert (hits, misses) == (4, 8)
    assert set(cache.entries) == {2, 3, 4, 5}
    assert outcomes == ref_policy_run(REF_12, 4, "lru")[2]


def test_single_slot_repeat_hits():
    for policy in ("fifo", "lifo", "lru", "mru", "arc"):
        _, hits, misses, _ = run_policy(["X", "X", "X"], 1, policy)
        assert (misses, hits) == (1, 2), policy


def test_fifo_ten_reference_string():
    # frozen from the hand-step oracle: 9 misses on the ten-access prefix
    _, hits, misses, _ = run_policy(REF_10, 3, "fifo")
    assert misses == 9
    assert (hits, misses) == ref_policy_run(REF_10, 3, "fifo")[:2]


def test_fifo_twenty_reference_string():
    # frozen: 15 misses, matching the classic 20-reference count
    _, _, misses, _ = run_policy(REF_20, 3, "fifo")
    assert misses == 15


def test_fifo_victim_is_first_inserted():
    cache = CacheState(CacheConfig(3, "fifo"))
    for seq, key in enumerate([7, 0, 1]):
        cache.access(key, seq)
    assert next(iter(cache.entries)) == 7
    out = cache.access(2, 3)
    assert out.evicted == (7,)


def test_victim_singleton():
    cache = CacheState(CacheConfig(1, "fifo"))
    cache.access("A", 0)
    assert next(iter(cache.entries)) == "A"


def test_lifo_victim_insertion_order_not_recency():
    cache = CacheState(CacheConfig(3, "lifo"))
    for seq, key in enumerate([1, 2, 3]):
        cache.access(key, seq)
    assert next(reversed(cache.entries)) == 3
    # hitting 1 must not change the lifo victim
    assert cache.access(1, 3).hit
    assert next(reversed(cache.entries)) == 3
    out = cache.access(4, 4)
    assert out.evicted == (3,)


def test_lifo_reference_run():
    # frozen from the hand-step oracle: misses 1..5, hits on 1 and 2
    cache, hits, misses, outcomes = run_policy([1, 2, 3, 4, 5, 1, 2], 3, "lifo")
    assert (hits, misses) == (2, 5)
    assert outcomes == ["M", "M", "M", "M", "M", "H", "H"]
    assert set(cache.entries) == {1, 2, 5}


def test_lru_mru_victims():
    for policy, expected in (("lru", "G"), ("mru", "I")):
        cache = CacheState(CacheConfig(3, policy))
        for seq, ch in enumerate("GHI"):
            cache.access(ch, seq)
        # the book's first key is the lru victim, its last the mru one
        victim = next(iter(cache.entries) if policy == "lru" else reversed(cache.entries))
        assert victim == expected


def test_mru_reference_run():
    # frozen from the hand-step oracle: every access misses
    _, hits, misses, outcomes = run_policy(list("ABCB"), 2, "mru")
    assert (hits, misses) == (0, 4)
    assert outcomes == ref_policy_run(list("ABCB"), 2, "mru")[2]


def test_snapshot_lru_order_script_case_one():
    cache = CacheState(CacheConfig(5, "lru"))
    seq = 0
    printed = []
    for ch in "GHI!JKGL!H!":
        if ch == "!":
            printed.append("".join(chr(k + 65) for k in cache.entries))
        else:
            cache.access(letter_key(ch), seq)
            seq += 1
    assert printed == ["GHI", "IJKGL", "JKGLH"]


def test_snapshot_case_three_and_empty():
    cache = CacheState(CacheConfig(5, "lru"))
    assert list(cache.entries) == []
    for seq, ch in enumerate("KMKMN"):
        cache.access(letter_key(ch), seq)
    assert [chr(k + 65) for k in cache.entries] == ["K", "M", "N"]


def test_snapshot_does_not_mutate():
    cache = CacheState(CacheConfig(3, "lru"))
    for seq, key in enumerate([1, 2, 3]):
        cache.access(key, seq)
    before = list(cache.entries)
    assert list(cache.entries) == before
    assert cache.access(1, 3).hit


def test_module_level_access_function():
    cache = CacheState(CacheConfig(2, "lru"))
    assert cache.access(5, 0) == AccessOutcome(False, ())
    assert cache.access(5, 1).hit


def test_classical_policies_match_reference_oracle():
    rng = random.Random(42)
    for trial in range(30):
        n = rng.randrange(1, 400)
        keys = [rng.randrange(12) for _ in range(n)]
        capacity = rng.randrange(1, 9)
        for policy in ("fifo", "lifo", "lru", "mru"):
            _, hits, misses, outcomes = run_policy(keys, capacity, policy)
            ref_hits, ref_misses, ref_outcomes, ref_resident = ref_policy_run(
                keys, capacity, policy)
            assert (hits, misses, outcomes) == (ref_hits, ref_misses, ref_outcomes), (
                trial, policy)


def test_residency_bound_all_policies():
    rng = random.Random(3)
    keys = [rng.randrange(40) for _ in range(500)]
    for policy in POLICIES:
        cache = make_cache(CacheConfig(6, policy))
        for seq, key in enumerate(keys):
            cache.access(key, seq)
            assert len(cache) <= 6


def test_consecutive_access_hits_all_policies():
    rng = random.Random(5)
    for policy in POLICIES:
        cache = make_cache(CacheConfig(3, policy))
        seq = 0
        for _ in range(200):
            key = rng.randrange(20)
            cache.access(key, seq)
            out = cache.access(key, seq + 1)
            assert out.hit, policy
            seq += 2


def test_lru_stack_property_random_traces():
    rng = random.Random(9)
    for _ in range(100):
        keys = [rng.randrange(30) for _ in range(500)]
        small = CacheState(CacheConfig(4, "lru"))
        large = CacheState(CacheConfig(5, "lru"))
        for seq, key in enumerate(keys):
            small.access(key, seq)
            large.access(key, seq)
            assert set(small.entries) <= set(large.entries)


def test_lru_hits_monotone_in_capacity():
    rng = random.Random(13)
    keys = [rng.randrange(50) for _ in range(2000)]
    hit_counts = []
    for k in (2, 4, 8, 16, 32):
        _, hits, _, _ = run_policy(keys, k, "lru")
        hit_counts.append(hits)
    assert hit_counts == sorted(hit_counts)


def test_fifo_belady_anomaly():
    # frozen from the hand-step oracle: 9 misses at k=3, 10 at k=4
    _, _, m3, _ = run_policy(REF_12, 3, "fifo")
    _, _, m4, _ = run_policy(REF_12, 4, "fifo")
    assert (m3, m4) == (9, 10)


def test_determinism_identical_outcome_sequences():
    rng = random.Random(21)
    keys = [rng.randrange(25) for _ in range(800)]
    for policy in POLICIES:
        runs = []
        for _ in range(2):
            cache = make_cache(CacheConfig(5, policy))
            runs.append([cache.access(key, seq) for seq, key in enumerate(keys)])
        assert runs[0] == runs[1], policy


# --- arc specifics ---


def arc_invariants(cache: ArcState):
    resident = set(cache.t1) | set(cache.t2)
    assert resident == set(cache.entries)
    lists = [set(cache.t1), set(cache.t2), set(cache.b1), set(cache.b2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (lists[i] & lists[j])
    assert len(cache.t1) + len(cache.b1) <= cache.capacity
    assert (len(cache.t1) + len(cache.t2) + len(cache.b1) + len(cache.b2)
            <= 2 * cache.capacity)
    assert 0 <= cache.p <= cache.capacity


def test_arc_scan_sequence_tally():
    # frozen from the hand-step oracle: the scan never reuses within the window,
    # so every access misses and p never adapts
    cache, hits, misses, outcomes = run_policy(ARC_SEQ, 3, "arc")
    ref_hits, ref_misses, ref_outcomes, _ = ref_arc_run(ARC_SEQ, 3)
    assert (hits, misses) == (0, 18)
    assert (hits, misses, outcomes) == (ref_hits, ref_misses, ref_outcomes)
    assert cache.p == 0


def test_arc_repeated_key_no_adaptation():
    cache, hits, misses, _ = run_policy(["X"] * 4, 3, "arc")
    assert (misses, hits) == (1, 3)
    assert cache.p == 0


def test_arc_ghost_hit_unit_adaptation():
    # A A B C fills t2/t1 and pushes B into b1; re-requesting B is a phantom hit
    cache = ArcState(CacheConfig(2, "arc"))
    for seq, key in enumerate(["A", "A", "B", "C"]):
        cache.access(key, seq)
    assert list(cache.b1) == ["B"]
    assert cache.p == 0
    out = cache.access("B", 4)
    assert not out.hit
    assert cache.p == 1
    assert "B" in cache.t2
    # The chosen ARC variant: B raised p to 1 == |t1|, and the full cache took the
    # t1 LRU (C), as it does whenever |t1| >= max(1, p). Megiddo & Modha's REPLACE
    # (FAST '03) takes t1 only if |t1| > p, or |t1| == p and the key is in b2; B
    # came from b1, so it would have taken the t2 LRU (A).
    assert out.evicted == ("C",)
    assert (list(cache.t1), list(cache.t2), list(cache.b1)) == ([], ["A", "B"], ["C"])


def test_arc_hit_in_t1_promotes_to_t2():
    cache = ArcState(CacheConfig(3, "arc"))
    cache.access("A", 0)
    assert list(cache.t1) == ["A"]
    out = cache.access("A", 1)
    assert out.hit
    assert list(cache.t1) == [] and list(cache.t2) == ["A"]


def test_arc_matches_reference_oracle_on_random_traces():
    rng = random.Random(77)
    for adaptation in ("unit", "ratio"):
        for _ in range(25):
            keys = [rng.randrange(14) for _ in range(600)]
            capacity = rng.randrange(1, 9)
            cache, hits, misses, outcomes = run_policy(keys, capacity, "arc", adaptation)
            ref_hits, ref_misses, ref_outcomes, (t1, t2, b1, b2, p) = ref_arc_run(
                keys, capacity, adaptation)
            assert (hits, misses, outcomes) == (ref_hits, ref_misses, ref_outcomes)
            assert list(cache.t1) == t1 and list(cache.t2) == t2
            assert list(cache.b1) == b1 and list(cache.b2) == b2
            assert cache.p == p


def test_arc_invariants_hold_after_every_access():
    rng = random.Random(101)
    cache = ArcState(CacheConfig(16, "arc"))
    for seq in range(100_000):
        cache.access(rng.randrange(64), seq)
        arc_invariants(cache)
    for capacity in (1, 2, 5):
        cache = ArcState(CacheConfig(capacity, "arc"))
        for seq in range(20_000):
            cache.access(rng.randrange(24), seq)
            arc_invariants(cache)


def test_make_cache_dispatch():
    assert isinstance(make_cache(CacheConfig(2, "arc")), ArcState)
    assert isinstance(make_cache(CacheConfig(2, "lru")), CacheState)
    with pytest.raises(InvalidParam):
        CacheState(CacheConfig(2, "arc"))


@pytest.mark.parametrize("policy", POLICIES)
def test_prefetched_flag_clears_on_first_demand_hit(policy):
    cache = make_cache(CacheConfig(3, policy))
    cache.access(1, 0)
    assert cache.insert(2, 0, True) == ()
    assert cache.access(2, 1) == AccessOutcome(True, (), True)
    assert cache.access(2, 2) == AccessOutcome(True, (), False)
    assert cache.access(1, 3) == AccessOutcome(True, (), False)


def test_lru_inclusion_after_every_prefix_vs_reference():
    rng = random.Random(31)
    keys = [rng.randrange(20) for _ in range(300)]
    cache = CacheState(CacheConfig(5, "lru"))
    for seq, key in enumerate(keys):
        cache.access(key, seq)
        assert list(cache.entries) == ref_lru_order(keys[: seq + 1], 5)


def book(cache):
    """Everything replay must leave as stepped access would: the entries in order
    with their prefetched flags and, for arc, the four lists and p."""
    state = list(cache.entries.items())
    if isinstance(cache, ArcState):
        return state, list(cache.t1), list(cache.t2), list(cache.b1), list(cache.b2), cache.p
    return state


@st.composite
def replay_cases(draw):
    """A cache config, keys to insert as prefetched first, and a demand key run."""
    policy = draw(st.sampled_from(POLICIES))
    adaptation = draw(st.sampled_from(("unit", "ratio")))
    capacity = draw(st.integers(1, 8))
    keys = st.integers(0, draw(st.integers(1, 20)))  # a narrow range brings reuse
    return (CacheConfig(capacity, policy, adaptation), draw(st.lists(keys, max_size=5)),
            draw(st.lists(keys, max_size=120)))


@settings(max_examples=500, deadline=None, database=None)
@given(replay_cases())
def test_replay_equals_stepped_access(case):
    config, prefetched, keys = case
    replayed, stepped = make_cache(config), make_cache(config)
    for cache in (replayed, stepped):
        for seq, key in enumerate(prefetched):
            if key not in cache:
                cache.insert(key, seq, True)
    outs = [stepped.access(key, seq) for seq, key in enumerate(keys)]
    hits = sum(out.hit for out in outs)
    evictions = sum(len(out.evicted) for out in outs)
    assert replayed.replay(keys) == (hits, evictions)
    assert book(replayed) == book(stepped)
