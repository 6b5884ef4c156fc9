#!/usr/bin/env python3
"""Pre-eviction wrappers: the halfway address-range rule and expiry timers."""

from cachelab import CacheConfig, PreEvictConfig, PreEvictingCache, make_cache

print("halfway rule over a 0..999 key space (threshold 500):")
cache = PreEvictingCache(make_cache(CacheConfig(8, "lru")),
                         PreEvictConfig(halfway_enabled=True, address_space_size=1000))
for seq, key in enumerate([10, 200, 900]):
    out = cache.access(key, seq)
    print(f"  access {key:>3}: {'hit ' if out.hit else 'miss'} "
          f"evicted={sorted(out.evicted)} resident={sorted(cache.base.entries)}")
print("  the miss on 900 cleared every resident below 500 first")

print()
print("expiry timers with T=3 (an entry unhit for 3 requests is dropped):")
cache = PreEvictingCache(make_cache(CacheConfig(8, "lru")),
                         PreEvictConfig(timer_enabled=True, timer_init=3))
for seq, key in enumerate(["A", "B", "C", "D"]):
    out = cache.access(key, seq)
    print(f"  access {key}: evicted={list(out.evicted)} resident={sorted(cache.base.entries)}")
print("  A expired on the tick before request 3 was served")

print()
print("hits reset the timer, so a working set touched often enough survives:")
cache = PreEvictingCache(make_cache(CacheConfig(8, "lru")),
                         PreEvictConfig(timer_enabled=True, timer_init=3))
for seq, key in enumerate(["A", "B"] * 8):
    cache.access(key, seq)
print(f"  after 16 alternating requests: resident={sorted(cache.base.entries)}, "
      f"timer evictions={cache.timer_evictions}")
