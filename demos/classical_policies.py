#!/usr/bin/env python3
"""Walk the classic reference strings through FIFO/LIFO/LRU/MRU and show
Belady's anomaly on FIFO."""

from cachelab import CacheConfig, RunConfig, Trace, run_sim


def as_trace(keys):
    return Trace(list(keys))


REF_STRING = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
FIFO_STRING = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]

print("reference string:", " ".join(map(str, REF_STRING)))
print()
print(f"{'policy':>8} {'k':>3} {'hits':>5} {'misses':>7}")
for policy in ("fifo", "lifo", "lru", "mru"):
    for k in (3, 4):
        r = run_sim(as_trace(REF_STRING), RunConfig(cache=CacheConfig(k, policy), label="x"))
        print(f"{policy:>8} {k:>3} {r.demand_hits:>5} {r.demand_misses:>7}")

print()
print("FIFO shows Belady's anomaly on this string: k=4 misses MORE than k=3.")
print("LRU cannot (stack property): its resident set at k is a subset of k+1's.")

print()
print("20-reference FIFO string:", " ".join(map(str, FIFO_STRING)))
r = run_sim(as_trace(FIFO_STRING), RunConfig(cache=CacheConfig(3, "fifo"), label="x"))
print(f"FIFO k=3 total faults: {r.demand_misses}")
