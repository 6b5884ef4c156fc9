"""Single-level fully-associative cache model with FIFO/LIFO/LRU/MRU and ARC,
and the pre-eviction wrapper whose timer and halfway rules their replays run."""

from collections import OrderedDict
from dataclasses import dataclass

from .prefetch import decide_prefetch
from .trace import InvalidParam, require_ints

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
        require_ints(capacity=self.capacity)
        if self.capacity < 1:
            raise InvalidParam(f"capacity must be >= 1, got {self.capacity}")
        if self.policy not in POLICIES:
            raise InvalidParam(f"unknown policy {self.policy!r}")
        if self.arc_adaptation not in (UNIT, RATIO):
            raise InvalidParam(f"unknown arc_adaptation {self.arc_adaptation!r}")


class CacheState:
    """Resident keys in one ordered book, each mapped to None: insertion order
    for fifo and lifo, recency order (least recent first) for lru and mru. The
    victim is the book's first key for fifo and lru and its last key for lifo and mru."""

    def __init__(self, config: CacheConfig):
        if config.policy == ARC:
            raise InvalidParam("use ArcState for the arc policy")
        self.capacity = config.capacity
        self.entries = OrderedDict()  # key -> None, oldest or least recent first
        self._by_recency = config.policy in (LRU, MRU)
        self._victim_last = config.policy in (LIFO, MRU)

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)

    def access(self, key, seq=None) -> tuple:
        """(hit, evicted keys) as an exact tuple; seq is ignored, as no policy keeps a clock."""
        if key not in self.entries:
            return False, self.insert(key)
        if self._by_recency:
            self.entries.move_to_end(key)
        return True, ()

    def replay(self, keys, pre=None, fetch=None) -> int:
        """Demand-access each key in order, leaving the state that one access per key
        would; returns the hits. `pre`, a PreEvictingCache over this cache, has its
        timer and halfway rules run inline before each access, and `fetch`, a
        Prefetcher, its step after it. A key that leaves the cache keeps its timer entry
        until it comes due or the replay ends, and its ledger entry until next read."""
        entries = self.entries
        popitem = entries.popitem
        move_to_end = entries.move_to_end if self._by_recency else None
        victim_last = self._victim_last
        room = self.capacity - len(entries)  # keys leave as victims or pre-evictions
        hits = expired = cleared = 0
        timer_init, halfway = (0, None) if pre is None else (pre._timer_init, pre._halfway)
        if pre is not None:
            low, deadlines, tick, due = pre.low, pre.deadlines, pre.ticks, pre._due
            pop_due, requeue = deadlines.popitem, deadlines.move_to_end
        if fetch is not None:
            observe, predict = fetch.predictor.observe, fetch.predictor.predict_next
            pending, by_victim = fetch.pending, fetch.by_victim
            config, top_k, p_min, alpha, min_support, on_miss = fetch.settings
            issued, useful, harmful = fetch.issued, fetch.useful, fetch.harmful
        extra, row = pre is not None or fetch is not None, None  # row None: no step
        for key in keys:
            if extra:
                if fetch is not None:
                    row = observe(key)
                    waiting = by_victim.get(key)  # the prefetches that evicted key, and
                    live = waiting and len(entries.keys() & waiting)  # those resident now
                if timer_init:
                    tick += 1
                    while tick >= due:  # pop the due prefix; keys already gone just leave
                        if not deadlines:
                            due = tick + timer_init
                            break
                        old, due = pop_due(False)
                        if due > tick:
                            deadlines[old] = due
                            requeue(old, False)
                        elif old in entries:
                            del entries[old]
                            room, expired = room + 1, expired + 1
                    deadlines[key] = tick + timer_init
                    requeue(key)
                if halfway is not None:
                    if key < halfway:
                        low.add(key)
                    elif low and key not in entries:
                        for old in low:
                            if old in entries:
                                del entries[old]
                                room, cleared = room + 1, cleared + 1
                        low.clear()
                if fetch is not None:
                    hit = key in entries
                    if key in pending:  # useful if still resident, else evicted unused
                        useful += hit
                        by_victim[pending.pop(key)].discard(key)
                    if live and not hit:  # a demand miss of their victim
                        harmful += live
                        for fetched in by_victim.pop(key):
                            del pending[fetched]
                    if hit and on_miss:
                        row = None  # no prefetch step after this access
            if key in entries:
                hits += 1
                if move_to_end:
                    move_to_end(key)
            else:
                if room:
                    room -= 1
                else:
                    popitem(victim_last)
                entries[key] = None
            if row is None or row.total < min_support:
                continue  # no prefetch step, or no row predict_next predicts anything from
            if top_k > 1:
                chosen = decide_prefetch(predict(None, top_k), config, entries)
            elif ((row.top + alpha) / (row.total + alpha * len(row)) < p_min
                  or row.leader in entries):  # decide_prefetch for top_k 1, inlined
                continue
            else:
                chosen = (row.leader,)
            for fetched in chosen:
                if room:
                    room, victim = room - 1, None
                else:
                    victim = popitem(victim_last)[0]
                entries[fetched] = None
                if timer_init:
                    deadlines[fetched] = tick + timer_init
                    requeue(fetched)
                if halfway is not None and fetched < halfway:
                    low.add(fetched)
                issued += 1
                if fetched in pending:
                    by_victim[pending[fetched]].discard(fetched)
                pending[fetched] = victim
                by_victim[victim].add(fetched)
        if pre is not None:
            pre._end_replay(tick, due, expired, cleared)
        if fetch is not None:
            fetch.issued, fetch.useful, fetch.harmful = issued, useful, harmful
        return hits

    def insert(self, key) -> tuple:
        """Insertion path shared by demand misses and prefetches; returns evicted keys."""
        entries = self.entries
        if len(entries) < self.capacity:
            entries[key] = None
            return ()
        victim = entries.popitem(self._victim_last)[0]
        entries[key] = None
        return (victim,)

    def evict_key(self, key):
        del self.entries[key]


class ArcState:
    """Two resident LRU lists (t1 recency, t2 frequency), two ghost lists, and the
    adaptive t1 target size p. The residents are exactly the keys of t1 and t2."""

    def __init__(self, config: CacheConfig):
        self.capacity = config.capacity
        self.unit_adaptation = config.arc_adaptation == UNIT
        self.t1 = OrderedDict()     # seen once recently, LRU -> MRU
        self.t2 = OrderedDict()     # seen at least twice, LRU -> MRU
        self.b1 = OrderedDict()     # ghosts of t1
        self.b2 = OrderedDict()     # ghosts of t2
        self.p = 0

    def __contains__(self, key):
        return key in self.t2 or key in self.t1

    def __len__(self):
        return len(self.t1) + len(self.t2)

    def access(self, key, seq=None) -> tuple:
        """As CacheState.access; seq is ignored, as no policy keeps a clock."""
        if key in self.t2:
            self.t2.move_to_end(key)
        elif key in self.t1:
            del self.t1[key]
            self.t2[key] = None
        else:
            return False, self.insert(key)
        return True, ()

    def replay(self, keys, pre=None, fetch=None) -> int:
        """As CacheState.replay: access and insert inlined, with the four list sizes and
        p in locals, p written back around each prefetch's insert and at the end. A
        pre-evicted key leaves t1 or t2 and enters no ghost list."""
        t1, t2, b1, b2 = self.t1, self.t2, self.b1, self.b2
        move_to_end = t2.move_to_end
        pop1, pop2, popb1, popb2 = t1.popitem, t2.popitem, b1.popitem, b2.popitem
        cap, unit, p = self.capacity, self.unit_adaptation, self.p
        n1, n2, m1, m2 = len(t1), len(t2), len(b1), len(b2)
        hits = expired = cleared = 0
        timer_init, halfway = (0, None) if pre is None else (pre._timer_init, pre._halfway)
        if pre is not None:
            low, deadlines, tick, due = pre.low, pre.deadlines, pre.ticks, pre._due
            pop_due, requeue = deadlines.popitem, deadlines.move_to_end
        if fetch is not None:
            observe, predict = fetch.predictor.observe, fetch.predictor.predict_next
            pending, by_victim = fetch.pending, fetch.by_victim
            config, top_k, _, _, min_support, on_miss = fetch.settings  # no top-1 shortcut
            issued, useful, harmful = fetch.issued, fetch.useful, fetch.harmful
        extra, row = pre is not None or fetch is not None, None  # row None: no step
        for key in keys:
            if extra:
                if fetch is not None:
                    row = observe(key)
                    waiting = by_victim.get(key)  # as in CacheState.replay
                    live = waiting and len(t1.keys() & waiting) + len(t2.keys() & waiting)
                if timer_init:
                    tick += 1
                    while tick >= due:  # as in CacheState.replay
                        if not deadlines:
                            due = tick + timer_init
                            break
                        old, due = pop_due(False)
                        if due > tick:
                            deadlines[old] = due
                            requeue(old, False)
                        elif old in t1:
                            del t1[old]
                            n1, expired = n1 - 1, expired + 1
                        elif old in t2:
                            del t2[old]
                            n2, expired = n2 - 1, expired + 1
                    deadlines[key] = tick + timer_init
                    requeue(key)
                if halfway is not None:
                    if key < halfway:
                        low.add(key)
                    elif low and key not in t2 and key not in t1:
                        for old in low:
                            if old in t1:
                                del t1[old]
                                n1, cleared = n1 - 1, cleared + 1
                            elif old in t2:
                                del t2[old]
                                n2, cleared = n2 - 1, cleared + 1
                        low.clear()
                if fetch is not None:  # as in CacheState.replay
                    hit = key in t2 or key in t1
                    if key in pending:
                        useful += hit
                        by_victim[pending.pop(key)].discard(key)
                    if live and not hit:
                        harmful += live
                        for fetched in by_victim.pop(key):
                            del pending[fetched]
                    if hit and on_miss:
                        row = None
            if key in t2:
                move_to_end(key)
                hits += 1
            elif key in t1:
                del t1[key]
                t2[key] = None
                n1, n2, hits = n1 - 1, n2 + 1, hits + 1
            else:
                dest = t2  # a ghost hit recalls the key to t2; a cold miss sets t1
                if key in b1:
                    p += 1 if unit else (m2 // m1 or 1)
                    p = p if p < cap else cap
                    del b1[key]
                    m1 -= 1
                elif key in b2:
                    p -= 1 if unit else (m1 // m2 or 1)
                    p = p if p > 0 else 0
                    del b2[key]
                    m2 -= 1
                else:
                    dest = t1
                    if n1 + m1 == cap:
                        if m1:
                            popb1(False)
                            m1 -= 1
                        else:  # t1 full: its LRU falls out of the directory entirely
                            pop1(False)
                            n1 -= 1
                    elif n1 + n2 + m1 + m2 >= 2 * cap:
                        popb2(False)
                        m2 -= 1
                if n1 + n2 >= cap:
                    if n1 and n1 >= p:
                        b1[pop1(False)[0]] = None
                        n1, m1 = n1 - 1, m1 + 1
                    else:
                        b2[pop2(False)[0]] = None
                        n2, m2 = n2 - 1, m2 + 1
                dest[key] = None
                if dest is t1:
                    n1 += 1
                else:
                    n2 += 1
            if row is None or row.total < min_support:
                continue  # as in CacheState.replay
            chosen = decide_prefetch(predict(None, top_k), config, self)
            self.p = p
            for fetched in chosen:
                victim, = self.insert(fetched) or (None,)  # it evicts at most one key
                if timer_init:
                    deadlines[fetched] = tick + timer_init
                    requeue(fetched)
                if halfway is not None and fetched < halfway:
                    low.add(fetched)
                issued += 1
                if fetched in pending:
                    by_victim[pending[fetched]].discard(fetched)
                pending[fetched] = victim
                by_victim[victim].add(fetched)
            p, n1, n2, m1, m2 = self.p, len(t1), len(t2), len(b1), len(b2)
        self.p = p
        if pre is not None:
            pre._end_replay(tick, due, expired, cleared)
        if fetch is not None:
            fetch.issued, fetch.useful, fetch.harmful = issued, useful, harmful
        return hits

    def insert(self, key) -> tuple:
        """Miss-path insertion: ghost recall with adaptation, or cold insert at t1 MRU."""
        cap = self.capacity
        t1, t2, b1, b2 = self.t1, self.t2, self.b1, self.b2
        n1, n2, m1, m2 = len(t1), len(t2), len(b1), len(b2)
        evicted = ()
        dest = t2  # a ghost hit recalls the key to t2; a cold miss sets t1
        if key in b1:
            p = self.p + (1 if self.unit_adaptation else (m2 // m1 or 1))
            self.p = p if p < cap else cap
            del b1[key]
        elif key in b2:
            p = self.p - (1 if self.unit_adaptation else (m1 // m2 or 1))
            self.p = p if p > 0 else 0
            del b2[key]
        else:
            dest = t1
            if n1 + m1 == cap:
                if m1:
                    b1.popitem(False)
                else:  # t1 full: its LRU falls out of the directory entirely
                    evicted = (t1.popitem(False)[0],)
                    n1 -= 1
            elif n1 + n2 + m1 + m2 >= 2 * cap:
                b2.popitem(False)
        if n1 + n2 >= cap:
            if n1 and n1 >= self.p:
                victim = t1.popitem(False)[0]
                b1[victim] = None
            else:
                victim = t2.popitem(False)[0]
                b2[victim] = None
            evicted = (victim,)
        dest[key] = None
        return evicted

    def evict_key(self, key):
        """Forced removal (pre-eviction); the key does not enter a ghost list."""
        if key in self.t1:
            del self.t1[key]
        else:
            del self.t2[key]


def make_cache(config: CacheConfig):
    if config.policy == ARC:
        return ArcState(config)
    return CacheState(config)


@dataclass(frozen=True)
class PreEvictConfig:
    halfway_enabled: bool = False
    address_space_size: int = 0
    timer_enabled: bool = False
    timer_init: int = 2048

    def __post_init__(self):
        require_ints(timer_init=self.timer_init, address_space_size=self.address_space_size)
        if self.timer_init < 1:
            raise InvalidParam(f"timer_init must be >= 1, got {self.timer_init}")
        if self.halfway_enabled and self.address_space_size < 2:
            raise InvalidParam("address_space_size must be >= 2 with halfway enabled")

    @property
    def enabled(self):
        return self.halfway_enabled or self.timer_enabled


class PreEvictingCache:
    """Pre-eviction over a base cache: per-entry expiry timers and halfway
    address-range clearing; with both axes disabled, an identity wrapper.

    Timers tick once per access call (no method reads a seq); an access or insert
    sets its key's timer to timer_init. One period for all timers means keys expire
    in touch order, so `deadlines` is a queue and each access pops its due prefix.
    With the timer on it holds exactly the residents at every method boundary. The
    residents below halfway are among `low`, the keys below halfway inserted since
    the last clearing. A stepped `access` runs expiry, clearing and the base access
    as one block, as the replays do, and returns an exact (hit, evicted) tuple:
    expiries, then clearings, each in ascending key order, then the policy's
    victims. `replay` runs both rules inside the base policy's replay loop, where
    nothing is reported and the book is lazy until the replay ends. The base cache
    must start empty and take every insertion through it."""

    def __init__(self, base, config: PreEvictConfig):
        self.base = base
        self.timer_evictions = self.halfway_evictions = 0
        self.ticks = 0
        self.deadlines = OrderedDict()  # key -> tick its timer runs out, in touch order
        self.low = set()
        self._timer_init = config.timer_init if config.timer_enabled else 0
        self._halfway = config.address_space_size // 2 if config.halfway_enabled else None
        self._due = self._timer_init  # never above the earliest deadline in the book

    def access(self, key, seq=None) -> tuple:
        """The base's access after expiry and clearing; seq is ignored, as ticks count calls."""
        base, removed = self.base, ()
        timer_init, halfway, deadlines = self._timer_init, self._halfway, self.deadlines
        if timer_init:
            self.ticks = tick = self.ticks + 1
            if tick >= self._due:
                removed = []
                while deadlines:  # pop the due prefix; every key in the book is resident
                    old, due = deadlines.popitem(False)
                    if due > tick:
                        deadlines[old] = due
                        deadlines.move_to_end(old, False)
                        break
                    base.evict_key(old)
                    removed.append(old)
                else:
                    due = tick + timer_init  # every later touch runs out then or after
                self._due = due
                removed.sort()
                self.timer_evictions += len(removed)
        if halfway is not None:
            low = self.low
            if key < halfway:
                low.add(key)  # a resident low key is already there
            elif low and key not in base:
                cleared = sorted(old for old in low if old in base)
                low.clear()
                for old in cleared:
                    base.evict_key(old)
                    if timer_init:
                        del deadlines[old]
                self.halfway_evictions += len(cleared)
                removed = [*removed, *cleared]
        hit, evicted = base.access(key)
        if timer_init:
            for victim in evicted:
                del deadlines[victim]
            deadlines[key] = tick + timer_init
            deadlines.move_to_end(key)
        return hit, (*removed, *evicted) if removed else evicted

    def replay(self, keys, fetch=None) -> int:
        """Demand-access every key in order, leaving the state that one access per
        key would leave; returns the hits. Both rules run inside the base's replay."""
        return self.base.replay(keys, self, fetch)

    def _end_replay(self, tick, due, expired, cleared):
        """Take back the state a base replay kept in locals, and drop the keys that
        left the cache from the timer book, which is lazy only within a replay."""
        self.ticks, self._due = tick, due
        self.timer_evictions += expired
        self.halfway_evictions += cleared
        base, deadlines = self.base, self.deadlines
        for key in [key for key in deadlines if key not in base]:
            del deadlines[key]

    def insert(self, key) -> tuple:
        evicted = self.base.insert(key)
        if self._timer_init:
            deadlines = self.deadlines
            for victim in evicted:
                del deadlines[victim]
            deadlines[key] = self.ticks + self._timer_init  # not resident: joins the back
        if self._halfway is not None and key < self._halfway:
            self.low.add(key)
        return evicted
