import random

import pytest
from hypothesis import given, settings, strategies as st

from cachelab.policies import (
    POLICIES,
    ArcState,
    CacheConfig,
    CacheState,
    PreEvictConfig,
    PreEvictingCache,
    make_cache,
)
from cachelab.trace import InvalidParam, letter_key

from reference import book, ref_arc_run, ref_lru_order, ref_policy_run, resident

REF_12 = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
REF_10 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3]
REF_20 = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]
ARC_SEQ = [0, 1, 2, 3, 0, 4, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 4, 3]


def run_policy(keys, capacity, policy, adaptation="unit"):
    """Step a fresh cache over keys: (cache, hits, misses, outcomes, victims), in the
    shape of the oracles' results, with each access's evicted keys as victims."""
    cache = make_cache(CacheConfig(capacity, policy, adaptation))
    hits = misses = 0
    outcomes, victims = [], []
    for key in keys:
        hit, evicted = cache.access(key)
        victims.append(evicted)
        if hit:
            hits += 1
            outcomes.append("H")
        else:
            misses += 1
            outcomes.append("M")
    return cache, hits, misses, outcomes, victims


def test_config_validation():
    with pytest.raises(InvalidParam):
        CacheConfig(0, "lru")
    with pytest.raises(InvalidParam):
        CacheConfig(4, "clock")
    with pytest.raises(InvalidParam):
        CacheConfig(4, "arc", arc_adaptation="half")


def test_lru_reference_string():
    # frozen from the hand-step oracle: 8 misses, 4 hits, residents {2,3,4,5}
    cache, hits, misses, outcomes, _ = run_policy(REF_12, 4, "lru")
    assert (hits, misses) == (4, 8)
    assert set(cache.entries) == {2, 3, 4, 5}
    assert outcomes == ref_policy_run(REF_12, 4, "lru")[2]


def test_single_slot_repeat_hits():
    for policy in ("fifo", "lifo", "lru", "mru", "arc"):
        _, hits, misses, _, _ = run_policy(["X", "X", "X"], 1, policy)
        assert (misses, hits) == (1, 2), policy


def test_fifo_ten_reference_string():
    # frozen from the hand-step oracle: 9 misses on the ten-access prefix
    _, hits, misses, _, _ = run_policy(REF_10, 3, "fifo")
    assert misses == 9
    assert (hits, misses) == ref_policy_run(REF_10, 3, "fifo")[:2]


def test_fifo_twenty_reference_string():
    # frozen: 15 misses, matching the classic 20-reference count
    _, _, misses, _, _ = run_policy(REF_20, 3, "fifo")
    assert misses == 15


def test_fifo_victim_is_first_inserted():
    cache = CacheState(CacheConfig(3, "fifo"))
    for key in [7, 0, 1]:
        cache.access(key)
    assert next(iter(cache.entries)) == 7
    _, evicted = cache.access(2)
    assert evicted == (7,)


def test_victim_singleton():
    cache = CacheState(CacheConfig(1, "fifo"))
    cache.access("A")
    assert next(iter(cache.entries)) == "A"


def test_lifo_victim_insertion_order_not_recency():
    cache = CacheState(CacheConfig(3, "lifo"))
    for key in [1, 2, 3]:
        cache.access(key)
    assert next(reversed(cache.entries)) == 3
    # hitting 1 must not change the lifo victim
    hit, _ = cache.access(1)
    assert hit
    assert next(reversed(cache.entries)) == 3
    _, evicted = cache.access(4)
    assert evicted == (3,)


def test_lifo_reference_run():
    # frozen from the hand-step oracle: misses 1..5, hits on 1 and 2
    cache, hits, misses, outcomes, _ = run_policy([1, 2, 3, 4, 5, 1, 2], 3, "lifo")
    assert (hits, misses) == (2, 5)
    assert outcomes == ["M", "M", "M", "M", "M", "H", "H"]
    assert set(cache.entries) == {1, 2, 5}


def test_lru_mru_victims():
    for policy, expected in (("lru", "G"), ("mru", "I")):
        cache = CacheState(CacheConfig(3, policy))
        for ch in "GHI":
            cache.access(ch)
        # the book's first key is the lru victim, its last the mru one
        victim = next(iter(cache.entries) if policy == "lru" else reversed(cache.entries))
        assert victim == expected


def test_mru_reference_run():
    # frozen from the hand-step oracle: every access misses
    _, hits, misses, outcomes, _ = run_policy(list("ABCB"), 2, "mru")
    assert (hits, misses) == (0, 4)
    assert outcomes == ref_policy_run(list("ABCB"), 2, "mru")[2]


def test_snapshot_lru_order_script_case_one():
    cache = CacheState(CacheConfig(5, "lru"))
    printed = []
    for ch in "GHI!JKGL!H!":
        if ch == "!":
            printed.append("".join(chr(k + 65) for k in cache.entries))
        else:
            cache.access(letter_key(ch))
    assert printed == ["GHI", "IJKGL", "JKGLH"]


def test_snapshot_case_three_and_empty():
    cache = CacheState(CacheConfig(5, "lru"))
    assert list(cache.entries) == []
    for ch in "KMKMN":
        cache.access(letter_key(ch))
    assert [chr(k + 65) for k in cache.entries] == ["K", "M", "N"]


def test_snapshot_does_not_mutate():
    cache = CacheState(CacheConfig(3, "lru"))
    for key in [1, 2, 3]:
        cache.access(key)
    before = list(cache.entries)
    assert list(cache.entries) == before
    hit, _ = cache.access(1)
    assert hit


def test_module_level_access_function():
    cache = CacheState(CacheConfig(2, "lru"))
    assert cache.access(5) == (False, ())
    hit, _ = cache.access(5)
    assert hit


def test_classical_policies_match_reference_oracle():
    rng = random.Random(42)
    for trial in range(30):
        n = rng.randrange(1, 400)
        keys = [rng.randrange(12) for _ in range(n)]
        capacity = rng.randrange(1, 9)
        for policy in ("fifo", "lifo", "lru", "mru"):
            cache, hits, misses, outcomes, victims = run_policy(keys, capacity, policy)
            ref_hits, ref_misses, ref_outcomes, ref_resident, ref_victims, ref_book = (
                ref_policy_run(keys, capacity, policy))
            assert (hits, misses, outcomes) == (ref_hits, ref_misses, ref_outcomes), (
                trial, policy)
            assert victims == ref_victims, (trial, policy)
            assert set(cache.entries) == ref_resident, (trial, policy)
            assert list(cache.entries) == ref_book, (trial, policy)


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "pre-evicting"])
@pytest.mark.parametrize("policy", POLICIES)
def test_stepped_access_is_one_key_replay(monkeypatch, policy, wrapped):
    # replay holds the only copy of each policy's rules and of the wrapper's
    cache = make_cache(CacheConfig(3, policy))
    if wrapped:
        cache = PreEvictingCache(cache, PreEvictConfig(timer_enabled=True, timer_init=4))
    calls, replay = [], type(cache).replay

    def recorder(self, *args, **kwargs):
        calls.append((args, kwargs))
        return replay(self, *args, **kwargs)

    monkeypatch.setattr(type(cache), "replay", recorder)
    for key in REF_20:
        calls.clear()
        cache.access(key)
        assert calls == [(((key,),), {})], key


def test_residency_bound_all_policies():
    rng = random.Random(3)
    keys = [rng.randrange(40) for _ in range(500)]
    for policy in POLICIES:
        cache = make_cache(CacheConfig(6, policy))
        for key in keys:
            cache.access(key)
            assert len(resident(cache)) <= 6


def test_consecutive_access_hits_all_policies():
    rng = random.Random(5)
    for policy in POLICIES:
        cache = make_cache(CacheConfig(3, policy))
        for _ in range(200):
            key = rng.randrange(20)
            cache.access(key)
            hit, _ = cache.access(key)
            assert hit, policy


def test_lru_stack_property_random_traces():
    rng = random.Random(9)
    for _ in range(100):
        keys = [rng.randrange(30) for _ in range(500)]
        small = CacheState(CacheConfig(4, "lru"))
        large = CacheState(CacheConfig(5, "lru"))
        for key in keys:
            small.access(key)
            large.access(key)
            assert set(small.entries) <= set(large.entries)


def test_lru_hits_monotone_in_capacity():
    rng = random.Random(13)
    keys = [rng.randrange(50) for _ in range(2000)]
    hit_counts = []
    for k in (2, 4, 8, 16, 32):
        _, hits, _, _, _ = run_policy(keys, k, "lru")
        hit_counts.append(hits)
    assert hit_counts == sorted(hit_counts)


def test_fifo_belady_anomaly():
    # frozen from the hand-step oracle: 9 misses at k=3, 10 at k=4
    _, _, m3, _, _ = run_policy(REF_12, 3, "fifo")
    _, _, m4, _, _ = run_policy(REF_12, 4, "fifo")
    assert (m3, m4) == (9, 10)


def test_determinism_identical_outcome_sequences():
    rng = random.Random(21)
    keys = [rng.randrange(25) for _ in range(800)]
    for policy in POLICIES:
        runs = []
        for _ in range(2):
            cache = make_cache(CacheConfig(5, policy))
            runs.append([cache.access(key) for key in keys])
        assert runs[0] == runs[1], policy


# --- arc specifics ---


def arc_invariants(cache: ArcState):
    assert all(key in cache for key in [*cache.t1, *cache.t2])
    assert not any(key in cache for key in [*cache.b1, *cache.b2])
    lists = [set(cache.t1), set(cache.t2), set(cache.b1), set(cache.b2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (lists[i] & lists[j])
    assert len(cache.t1) + len(cache.b1) <= cache.capacity
    assert (len(cache.t1) + len(cache.t2) + len(cache.b1) + len(cache.b2)
            <= 2 * cache.capacity)
    assert 0 <= cache.p <= cache.capacity
    if cache.unit_adaptation:  # so a unit b1 ghost hit never lifts p past capacity
        assert cache.p + len(cache.b1) <= cache.capacity


def test_arc_scan_sequence_tally():
    # frozen from the hand-step oracle: the scan never reuses within the window,
    # so every access misses and p never adapts
    cache, hits, misses, outcomes, _ = run_policy(ARC_SEQ, 3, "arc")
    ref_hits, ref_misses, ref_outcomes, _, _ = ref_arc_run(ARC_SEQ, 3)
    assert (hits, misses) == (0, 18)
    assert (hits, misses, outcomes) == (ref_hits, ref_misses, ref_outcomes)
    assert cache.p == 0


def test_arc_repeated_key_no_adaptation():
    cache, hits, misses, _, _ = run_policy(["X"] * 4, 3, "arc")
    assert (misses, hits) == (1, 3)
    assert cache.p == 0


def test_arc_ghost_hit_unit_adaptation():
    # A A B C fills t2/t1 and pushes B into b1; re-requesting B is a phantom hit
    cache = ArcState(CacheConfig(2, "arc"))
    for key in ["A", "A", "B", "C"]:
        cache.access(key)
    assert list(cache.b1) == ["B"]
    assert cache.p == 0
    hit, evicted = cache.access("B")
    assert not hit
    assert cache.p == 1
    assert "B" in cache.t2
    # The chosen ARC variant: B raised p to 1 == |t1|, and the full cache took the
    # t1 LRU (C), as it does whenever |t1| >= max(1, p). Megiddo & Modha's REPLACE
    # (FAST '03) takes t1 only if |t1| > p, or |t1| == p and the key is in b2; B
    # came from b1, so it would have taken the t2 LRU (A).
    assert evicted == ("C",)
    assert (list(cache.t1), list(cache.t2), list(cache.b1)) == ([], ["A", "B"], ["C"])


def test_arc_hit_in_t1_promotes_to_t2():
    cache = ArcState(CacheConfig(3, "arc"))
    cache.access("A")
    assert list(cache.t1) == ["A"]
    hit, _ = cache.access("A")
    assert hit
    assert list(cache.t1) == [] and list(cache.t2) == ["A"]


def test_arc_matches_reference_oracle_on_random_traces():
    rng = random.Random(77)
    for adaptation in ("unit", "ratio"):
        for _ in range(25):
            keys = [rng.randrange(14) for _ in range(600)]
            capacity = rng.randrange(1, 9)
            cache, hits, misses, outcomes, victims = run_policy(keys, capacity, "arc",
                                                                adaptation)
            ref_hits, ref_misses, ref_outcomes, (t1, t2, b1, b2, p), ref_victims = (
                ref_arc_run(keys, capacity, adaptation))
            assert (hits, misses, outcomes) == (ref_hits, ref_misses, ref_outcomes)
            assert victims == ref_victims  # replaced and t1-dropped keys alike
            assert list(cache.t1) == t1 and list(cache.t2) == t2
            assert list(cache.b1) == b1 and list(cache.b2) == b2
            assert cache.p == p


def test_arc_invariants_hold_after_every_access():
    rng = random.Random(101)
    cache = ArcState(CacheConfig(16, "arc"))
    for _ in range(100_000):
        cache.access(rng.randrange(64))
        arc_invariants(cache)
    for capacity in (1, 2, 5):
        cache = ArcState(CacheConfig(capacity, "arc"))
        for _ in range(20_000):
            cache.access(rng.randrange(24))
            arc_invariants(cache)


def test_make_cache_dispatch():
    assert isinstance(make_cache(CacheConfig(2, "arc")), ArcState)
    assert isinstance(make_cache(CacheConfig(2, "lru")), CacheState)
    with pytest.raises(InvalidParam):
        CacheState(CacheConfig(2, "arc"))


def test_lru_inclusion_after_every_prefix_vs_reference():
    rng = random.Random(31)
    keys = [rng.randrange(20) for _ in range(300)]
    cache = CacheState(CacheConfig(5, "lru"))
    for seq, key in enumerate(keys):
        cache.access(key)
        assert list(cache.entries) == ref_lru_order(keys[: seq + 1], 5)


@st.composite
def replay_cases(draw):
    """A cache config and 1-4 rounds, each of keys to insert first (as prefetches do)
    and a demand key run to replay."""
    policy = draw(st.sampled_from(POLICIES))
    adaptation = draw(st.sampled_from(("unit", "ratio")))
    capacity = draw(st.integers(1, 8))
    keys = st.integers(0, draw(st.integers(1, 20)))  # a narrow range brings reuse
    rounds = st.tuples(st.lists(keys, max_size=5), st.lists(keys, max_size=120))
    return CacheConfig(capacity, policy, adaptation), draw(st.lists(rounds, min_size=1,
                                                                    max_size=4))


@settings(max_examples=500, deadline=None, database=None)
@given(replay_cases())
def test_replay_equals_stepped_access(case):
    # ARC's stepped access is itself a replay, so its book is also checked against
    # the naive oracle over every access made so far, insertions included
    config, rounds = case
    replayed, stepped = make_cache(config), make_cache(config)
    accessed = []
    for prefetched, keys in rounds:
        for key in prefetched:
            if key not in stepped:  # a key that is not resident inserts as a miss does
                accessed.append(key)
                for cache in (replayed, stepped):
                    cache.access(key)
        before = len(stepped)
        outs = [stepped.access(key) for key in keys]
        hits = sum(hit for hit, _ in outs)
        evictions = sum(len(evicted) for _, evicted in outs)
        assert replayed.replay(iter(keys)) == hits
        assert evictions == len(keys) - hits - (len(stepped) - before)
        assert book(replayed) == book(stepped)
        accessed += keys
        if config.policy == "arc":
            assert book(replayed) == ref_arc_run(accessed, config.capacity,
                                                 config.arc_adaptation)[3]


@settings(max_examples=300, deadline=None, database=None)
@given(policy=st.sampled_from(("fifo", "lifo", "lru", "mru")), capacity=st.integers(1, 8),
       chunks=st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 12), max_size=40)),
                       max_size=6))
def test_classical_book_equals_reference_after_replays_and_steps(policy, capacity, chunks):
    # each chunk is replayed whole or stepped key by key; the book after every chunk
    # is the oracle's for all keys so far
    cache = CacheState(CacheConfig(capacity, policy))
    accessed = []
    for replayed, keys in chunks:
        if replayed:
            cache.replay(iter(keys))
        else:
            for key in keys:
                cache.access(key)
        accessed += keys
        assert list(cache.entries) == ref_policy_run(accessed, capacity, policy)[5]


def test_replays_hold_no_closure_cells():
    # on Python 3.10 and 3.11 a comprehension over a replay local makes it a cell, and
    # every read of it in the loop a LOAD_DEREF
    assert CacheState.replay.__code__.co_cellvars == ()
    assert ArcState.replay.__code__.co_cellvars == ()


# Ghost hits whose step would carry p past a bound; the test checks that each one
# does. Under unit adaptation p + |b1| <= capacity (arc_invariants), so a b1 ghost
# hit finds p < capacity and only the lower bound can bind.
ARC_CLAMP_CASES = [
    ("ratio", 3, [0, 2, 2, 0, 1, 5, 1, 3, 7, 2, 5, 7, 3], {"capacity", "zero"}),
    ("unit", 1, [0, 0, 1, 0], {"zero"}),
]


@pytest.mark.parametrize("adaptation, capacity, keys, bounds", ARC_CLAMP_CASES)
def test_arc_p_clamps_at_both_bounds(adaptation, capacity, keys, bounds):
    config = CacheConfig(capacity, "arc", adaptation)
    unit = adaptation == "unit"
    stepped = ArcState(config)
    hit_bounds, stepped_hits = set(), 0
    for key in keys:
        p, m1, m2 = stepped.p, len(stepped.b1), len(stepped.b2)
        if key in stepped.b1 and p + (1 if unit else (m2 // m1 or 1)) > capacity:
            hit_bounds.add("capacity")
        elif key in stepped.b2 and p - (1 if unit else (m1 // m2 or 1)) < 0:
            hit_bounds.add("zero")
        hit, _ = stepped.access(key)
        stepped_hits += hit
    assert hit_bounds == bounds
    ref_hits, _, _, final, _ = ref_arc_run(keys, capacity, adaptation)
    assert (stepped_hits, book(stepped)) == (ref_hits, final)
    for size in (len(keys), 1, 2, 5):  # one replay, then replays of chunks
        replayed = ArcState(config)
        hits = sum(replayed.replay(keys[i:i + size]) for i in range(0, len(keys), size))
        assert (hits, book(replayed)) == (ref_hits, final)


@st.composite
def arc_chunked_cases(draw):
    """An ARC config; a trace that opens with a scan of c + 1 new keys, so that t1 fills
    while b1 is empty, then draws from 3c keys long enough to fill the directory to 2c
    and drop b2 LRUs; and 0-3 cuts that split it into 1-4 replay chunks."""
    capacity = draw(st.integers(1, 40))
    adaptation = draw(st.sampled_from(("unit", "ratio")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keys = [*range(capacity + 1), *(rng.randrange(3 * capacity) for _ in range(20 * capacity))]
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=3)))
    return CacheConfig(capacity, "arc", adaptation), keys, cuts


@settings(max_examples=200, deadline=None, database=None)
@given(arc_chunked_cases())
def test_arc_chunked_replay_matches_naive_oracle(case):
    # each chunk re-reads the list sizes and p at entry and writes p back at exit
    config, keys, cuts = case
    replayed = ArcState(config)
    hits = 0
    for start, stop in zip([0, *cuts], [*cuts, len(keys)]):
        hits += replayed.replay(iter(keys[start:stop]))
    ref_hits, _, _, final, _ = ref_arc_run(keys, config.capacity, config.arc_adaptation)
    assert hits == ref_hits
    assert book(replayed) == final
    stepped = ArcState(config)
    evictions = sum(len(evicted) for _, evicted in map(stepped.access, keys))
    assert evictions == len(keys) - hits - len(stepped)
