#!/usr/bin/env python3
"""Watch the adaptive policy's four lists and its t1-target p react to ghost hits."""

from cachelab import ArcState, CacheConfig


def show(cache, note=""):
    print(f"  t1={list(cache.t1)!s:<12} t2={list(cache.t2)!s:<12} "
          f"b1={list(cache.b1)!s:<8} b2={list(cache.b2)!s:<8} p={cache.p}  {note}")


cache = ArcState(CacheConfig(2, "arc"))
print("capacity 2, unit adaptation")
for key in ["A", "A", "B", "C"]:
    hit, _ = cache.access(key)
    show(cache, f"access {key}: {'hit' if hit else 'miss'}")

print()
print("B now lives in the b1 ghost list; touching it is a phantom hit that")
print("grows p by one and recalls B into t2:")
hit, _ = cache.access("B")
show(cache, f"access B: {'hit' if hit else 'miss'} (phantom)")

print()
print("a pure scan never reuses inside the window, so arc degrades to plain")
print("recency eviction and p stays put:")
scan = ArcState(CacheConfig(3, "arc"))
hits = sum(hit for hit, _ in map(scan.access, [0, 1, 2, 3, 0, 4, 1, 2, 3] * 2))
show(scan, f"scan done: {hits} hits")
