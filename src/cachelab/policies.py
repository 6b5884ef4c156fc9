"""Single-level fully-associative cache model with FIFO/LIFO/LRU/MRU and ARC."""

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .trace import InvalidParam

FIFO = "fifo"
LIFO = "lifo"
LRU = "lru"
MRU = "mru"
ARC = "arc"
POLICIES = (FIFO, LIFO, LRU, MRU, ARC)

UNIT = "unit"
RATIO = "ratio"


@dataclass(frozen=True)
class CacheConfig:
    capacity: int
    policy: str = LRU
    arc_adaptation: str = UNIT

    def __post_init__(self):
        if self.capacity < 1:
            raise InvalidParam(f"capacity must be >= 1, got {self.capacity}")
        if self.policy not in POLICIES:
            raise InvalidParam(f"unknown policy {self.policy!r}")
        if self.arc_adaptation not in (UNIT, RATIO):
            raise InvalidParam(f"unknown arc_adaptation {self.arc_adaptation!r}")


class AccessOutcome(NamedTuple):
    hit: bool
    evicted: tuple = ()
    was_prefetched_hit: bool = False


HIT = AccessOutcome(True)
PREFETCHED_HIT = AccessOutcome(True, (), True)
_new_tuple = tuple.__new__  # builds an AccessOutcome without its Python-level __new__


class CacheState:
    """Resident keys in one ordered book, each mapped to its prefetched flag (true
    until the first demand hit): insertion order for fifo and lifo, recency order
    (least recent first) for lru and mru. The victim is the book's first key for
    fifo and lru and its last key for lifo and mru."""

    def __init__(self, config: CacheConfig):
        if config.policy == ARC:
            raise InvalidParam("use ArcState for the arc policy")
        self.capacity = config.capacity
        self.entries = OrderedDict()  # key -> prefetched, oldest or least recent first
        self._by_recency = config.policy in (LRU, MRU)
        self._victim_last = config.policy in (LIFO, MRU)

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)

    def access(self, key, seq) -> AccessOutcome:
        prefetched = self.entries.get(key)
        if prefetched is None:
            return _new_tuple(AccessOutcome, (False, self.insert(key, seq), False))
        if self._by_recency:
            self.entries.move_to_end(key)
        if prefetched:
            self.entries[key] = False
            return PREFETCHED_HIT
        return HIT

    def replay(self, keys) -> tuple:
        """Demand-access every key in order, leaving the state that one access per
        key would leave; returns (hits, evictions). access and insert are inlined."""
        entries = self.entries
        get, popitem = entries.get, entries.popitem
        move_to_end = entries.move_to_end if self._by_recency else None
        victim_last = self._victim_last
        room = self.capacity - len(entries)  # a full cache stays full: keys leave as victims
        hits = evictions = 0
        for key in keys:
            prefetched = get(key)
            if prefetched is None:
                if room:
                    room -= 1
                else:
                    popitem(victim_last)
                    evictions += 1
            else:
                hits += 1
                if move_to_end:
                    move_to_end(key)
                if not prefetched:
                    continue
            entries[key] = False
        return hits, evictions

    def insert(self, key, seq, prefetched=False) -> tuple:
        """Insertion path shared by demand misses and prefetches; returns evicted keys."""
        entries = self.entries
        if len(entries) < self.capacity:
            entries[key] = prefetched
            return ()
        victim = entries.popitem(self._victim_last)[0]
        entries[key] = prefetched
        return (victim,)

    def evict_key(self, key):
        del self.entries[key]


class ArcState:
    """Two resident LRU lists (t1 recency, t2 frequency), two ghost lists, and the
    adaptive t1 target size p."""

    def __init__(self, config: CacheConfig):
        self.capacity = config.capacity
        self.unit_adaptation = config.arc_adaptation == UNIT
        self.entries = {}           # resident key -> prefetched flag
        self.t1 = OrderedDict()     # seen once recently, LRU -> MRU
        self.t2 = OrderedDict()     # seen at least twice, LRU -> MRU
        self.b1 = OrderedDict()     # ghosts of t1
        self.b2 = OrderedDict()     # ghosts of t2
        self.p = 0

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)

    def access(self, key, seq) -> AccessOutcome:
        prefetched = self.entries.get(key)
        if prefetched is None:
            return _new_tuple(AccessOutcome, (False, self.insert(key, seq), False))
        if key in self.t1:
            del self.t1[key]
            self.t2[key] = None
        else:
            self.t2.move_to_end(key)
        if prefetched:
            self.entries[key] = False
            return PREFETCHED_HIT
        return HIT

    def replay(self, keys) -> tuple:
        """Demand-access every key in order, leaving the state that one access per
        key would leave; returns (hits, evictions). Misses go through insert."""
        entries, t1, t2 = self.entries, self.t1, self.t2
        get, insert, move_to_end = entries.get, self.insert, t2.move_to_end
        hits = evictions = 0
        for key in keys:
            prefetched = get(key)
            if prefetched is None:
                evictions += len(insert(key, None))
                continue
            hits += 1
            t1.pop(key, None)  # a hit in t1 or in t2 puts the key at the MRU end of t2
            t2[key] = None
            move_to_end(key)
            if prefetched:
                entries[key] = False
        return hits, evictions

    def insert(self, key, seq, prefetched=False) -> tuple:
        """Miss-path insertion: ghost recall with adaptation, or cold insert at t1 MRU."""
        cap = self.capacity
        t1, b1, b2 = self.t1, self.b1, self.b2
        full = len(self.entries) >= cap
        evicted = ()
        if key in b1:
            delta = 1 if self.unit_adaptation else max(1, len(b2) // len(b1))
            self.p = min(self.p + delta, cap)
            if full:
                evicted = (self._replace(),)
            del b1[key]
            self.t2[key] = None
        elif key in b2:
            delta = 1 if self.unit_adaptation else max(1, len(b1) // len(b2))
            self.p = max(self.p - delta, 0)
            if full:
                evicted = (self._replace(),)
            del b2[key]
            self.t2[key] = None
        else:
            if len(t1) + len(b1) == cap:
                if len(t1) < cap:
                    b1.popitem(False)
                    if full:
                        evicted = (self._replace(),)
                else:
                    # b1 empty, t1 full: the t1 LRU falls out of the directory entirely
                    old, _ = t1.popitem(False)
                    del self.entries[old]
                    evicted = (old,)
            else:
                total = len(t1) + len(self.t2) + len(b1) + len(b2)
                if total >= cap:
                    if total >= 2 * cap:
                        b2.popitem(False)
                    if full:
                        evicted = (self._replace(),)
            t1[key] = None
        self.entries[key] = prefetched
        return evicted

    def _replace(self):
        t1 = self.t1
        if t1 and len(t1) >= self.p:
            victim, _ = t1.popitem(False)
            self.b1[victim] = None
        else:
            victim, _ = self.t2.popitem(False)
            self.b2[victim] = None
        del self.entries[victim]
        return victim

    def evict_key(self, key):
        """Forced removal (pre-eviction); the key does not enter a ghost list."""
        del self.entries[key]
        if key in self.t1:
            del self.t1[key]
        else:
            del self.t2[key]


def make_cache(config: CacheConfig):
    if config.policy == ARC:
        return ArcState(config)
    return CacheState(config)
