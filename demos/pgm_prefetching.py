#!/usr/bin/env python3
"""Markov next-key prediction driving prefetch, and what it buys over plain LRU."""

from cachelab import (
    CacheConfig,
    MarkovPredictor,
    PredictorConfig,
    PrefetchConfig,
    RunConfig,
    gen_markov_trace,
    run_sim,
)

print("the predictor is just successor counting:")
pred = MarkovPredictor(order=1, alpha=0, min_support=1)
for key in [1, 2, 1, 2, 1, 3]:
    pred.observe(key)
print(f"  counts from context (1,): {pred.counts[(1,)].successors()}")
print(f"  ranked predictions: {pred.predict_next((1,), top_k=2)}")

print()
print("a mostly-sequential workload (90% follow the cycle, 10% random jumps)")
trace = gen_markov_trace(seed=7, num_keys=500, length=80_000, determinism=0.9)

base = run_sim(trace, RunConfig(cache=CacheConfig(32, "lru"), label="lru"))
boosted = run_sim(trace, RunConfig(
    cache=CacheConfig(32, "lru"),
    prefetch=PrefetchConfig(top_k=1, p_min=0.1),
    predictor=PredictorConfig(order=1, alpha=1.0, min_support=2),
    label="lru+pgm",
))

for r in (base, boosted):
    print(f"  {r.label:<8} hit ratio {r.hit_ratio:6.2%}   "
          f"issued {r.prefetch_issued:>6}  useful {r.prefetch_useful:>6}  "
          f"useless {r.prefetch_useless:>5}  harmful {r.prefetch_harmful:>3}  "
          f"coverage {r.prefetch_coverage:6.2f}%")

uplift = 100 * (boosted.hit_ratio - base.hit_ratio)
print(f"\nprefetching lifts the hit ratio by {uplift:.1f} percentage points here:")
print("the cache is far smaller than the cycle, so plain LRU almost always misses,")
print("while the predictor fetches the next key just before it is demanded.")
