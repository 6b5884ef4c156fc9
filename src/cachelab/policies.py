"""Single-level fully-associative cache model with FIFO/LIFO/LRU/MRU and ARC,
and the pre-eviction wrapper whose timer and halfway rules their replays run."""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

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
        object.__setattr__(self, "capacity", *require_ints(capacity=self.capacity))
        if self.capacity < 1:
            raise InvalidParam(f"capacity must be >= 1, got {self.capacity}")
        if self.policy not in POLICIES:
            raise InvalidParam(f"unknown policy {self.policy!r}")
        if self.arc_adaptation not in (UNIT, RATIO):
            raise InvalidParam(f"unknown arc_adaptation {self.arc_adaptation!r}")


class CacheState:
    """Resident keys in one ordered book, each mapped to None: insertion order
    for fifo and lifo, recency order (least recent first) for lru and mru. The
    victim is the book's first key for fifo and lru and its last key for lifo and mru.
    The victim-last policies keep the book as a plain dict, which pops its own last
    key; the victim-first ones need an OrderedDict, which pops its first key in O(1)."""

    def __init__(self, config: CacheConfig):
        if config.policy == ARC:
            raise InvalidParam("use ArcState for the arc policy")
        self.capacity = config.capacity
        self._by_recency = config.policy in (LRU, MRU)
        self._victim_last = config.policy in (LIFO, MRU)
        # key -> None, oldest or least recent first
        self.entries = {} if self._victim_last else OrderedDict()

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def access(self, key, seq=None) -> tuple:
        """(hit, evicted keys) as an exact tuple, as a replay of the one key: replay holds
        the only copy of the four rules. seq is ignored, as no policy keeps a clock. A
        miss on a full book evicts its victim end, which access notes first."""
        entries = self.entries
        full = len(entries) >= self.capacity
        if full:
            head = next(reversed(entries) if self._victim_last else iter(entries))
        if self.replay((key,)):
            return True, ()
        return False, (head,) if full else ()

    def replay(self, keys, pre=None, fetch=None) -> int:
        """Demand-access each key in order, leaving the state that one access per key
        would; returns the hits. `pre`, a PreEvictingCache over this cache, has its
        timer and halfway rules run inline before each access, and `fetch`, a
        Prefetcher, its step after it, from entries one leaders pass lists up front.
        A key that leaves the cache keeps its timer entry until it comes due or the
        replay ends, and its ledger entry until next read. A run with neither takes
        the plain loop, any other run the extras loop."""
        entries = self.entries
        popitem = entries.popitem
        victim_last = self._victim_last
        # lru moves a hit with move_to_end; mru, a plain dict, deletes and reinserts it
        move_to_end = entries.move_to_end if self._by_recency and not victim_last else None
        mru = self._by_recency and victim_last
        room = self.capacity - len(entries)  # keys leave as victims or pre-evictions
        hits = expired = cleared = 0
        if pre is None and fetch is None:  # the plain loop
            for key in keys:
                if key in entries:
                    hits += 1
                    if move_to_end:
                        move_to_end(key)
                    elif mru:
                        del entries[key]
                        entries[key] = None
                else:
                    if room:
                        room -= 1
                    elif victim_last:
                        popitem()
                    else:
                        popitem(False)
                    entries[key] = None
            return hits
        timer_init, halfway = (0, None) if pre is None else (pre._timer_init, pre._halfway)
        if pre is not None:
            low, deadlines, tick, due = pre.low, pre.deadlines, pre.ticks, pre._due
            pop_due, requeue = deadlines.popitem, deadlines.move_to_end
        if fetch is not None:
            pending, by_victim, on_miss = fetch.pending, fetch.by_victim, fetch.on_miss
            top1 = fetch.config.top_k == 1
            issued, useful, harmful = fetch.issued, fetch.useful, fetch.harmful
            keys, lead = fetch.leads(keys)
        ahead = None  # the top-1 leader or the top-k keys; None: no prefetch step
        for key in keys:  # the extras loop
            if fetch is not None:
                ahead = lead()
            if pre is not None:
                if fetch is not None:  # a rule may remove a prefetch before its victim misses
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
            if key in entries:
                hits += 1
                if move_to_end:
                    move_to_end(key)
                elif mru:
                    del entries[key]
                    entries[key] = None
                if fetch is not None:
                    if key in pending:  # useful
                        useful += 1
                        by_victim[pending.pop(key)].discard(key)
                    if on_miss:
                        continue
            else:
                if fetch is not None:
                    if key in pending:  # evicted unused
                        by_victim[pending.pop(key)].discard(key)
                    if pre is None:  # with no rule, the residents the access began with
                        waiting = by_victim.get(key)
                        live = waiting and len(entries.keys() & waiting)
                    if live:  # a demand miss of their victim
                        harmful += live
                        for fetched in by_victim.pop(key):
                            del pending[fetched]
                if room:
                    room -= 1
                elif victim_last:
                    popitem()
                else:
                    popitem(False)
                entries[key] = None
            if ahead is None:
                continue  # no prefetch step, or nothing predicted above p_min
            if top1:
                if ahead in entries:
                    continue
                chosen = (ahead,)
            else:
                chosen = [k for k in ahead if k not in entries]
            for fetched in chosen:
                if room:
                    room, victim = room - 1, None
                elif victim_last:
                    victim = popitem()[0]
                else:
                    victim = popitem(False)[0]
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

    def __iter__(self):
        return chain(self.t1, self.t2)

    def access(self, key, seq=None) -> tuple:
        """As CacheState.access, as a replay of the one key: replay holds ARC's only copy
        of its rules. A miss evicts at most one key, the LRU of t1 or of t2, so the
        evicted keys are the heads no longer resident after it."""
        heads = [next(iter(t)) for t in (self.t1, self.t2) if t]
        if self.replay((key,)):
            return True, ()
        return False, tuple(head for head in heads if head not in self)

    def replay(self, keys, pre=None, fetch=None) -> int:
        """As CacheState.replay, with the four list sizes and p in locals. p is written
        back before each prefetch step, which inserts through a stepped access (a
        nested one-key replay), read again after it, and written back at the end. A
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
            pending, by_victim, on_miss = fetch.pending, fetch.by_victim, fetch.on_miss
            top1 = fetch.config.top_k == 1
            issued, useful, harmful = fetch.issued, fetch.useful, fetch.harmful
            keys, lead = fetch.leads(keys)
        extra, ahead = pre is not None or fetch is not None, None  # as in CacheState.replay
        for key in keys:
            if extra:
                if fetch is not None:
                    ahead = lead()
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
                        ahead = None
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
            if ahead is None:
                continue  # as in CacheState.replay
            chosen = [k for k in ((ahead,) if top1 else ahead) if k not in self]
            self.p = p
            for fetched in chosen:
                victim, = self.access(fetched)[1] or (None,)  # it evicts at most one key
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
        for name in ("timer_init", "address_space_size"):  # ints, not numpy scalars
            object.__setattr__(self, name, *require_ints(**{name: getattr(self, name)}))
        if self.timer_init < 1:
            raise InvalidParam(f"timer_init must be >= 1, got {self.timer_init}")
        if self.halfway_enabled and self.address_space_size < 2:
            raise InvalidParam("address_space_size must be >= 2 with halfway enabled")


class PreEvictingCache:
    """Pre-eviction over a base cache: per-entry expiry timers and halfway
    address-range clearing; with both axes disabled, an identity wrapper.

    Timers tick once per demand access; an access or a prefetch sets its key's timer
    to timer_init. One period for all timers means keys expire in touch order, so
    `deadlines` is a queue and each access pops its due prefix. With the timer on it
    holds exactly the residents at every method boundary. The residents below
    halfway are among `low`, the keys below halfway inserted since the last
    clearing. Both rules run only inside the base policy's replay loop, where nothing
    is reported and the book is lazy until the replay ends; a stepped `access` is a
    one-key replay. The base cache must start empty and take every insertion through it."""

    def __init__(self, base, config: PreEvictConfig):
        if len(base):  # its residents would have no timer and no place in `low`
            raise InvalidParam(f"the base cache must start empty, got {len(base)} residents")
        self.base = base
        self.timer_evictions = self.halfway_evictions = 0
        self.ticks = 0
        self.deadlines = OrderedDict()  # key -> tick its timer runs out, in touch order
        self.low = set()
        self._timer_init = config.timer_init if config.timer_enabled else 0
        self._halfway = config.address_space_size // 2 if config.halfway_enabled else None
        self._due = self._timer_init  # never above the earliest deadline in the book

    def access(self, key, seq=None) -> tuple:
        """A replay of the one key as an exact (hit, evicted) tuple; seq is ignored. The
        evicted keys are the residents gone after it and the key itself if it expired:
        expiries, then clearings or the policy's victim (never both: a miss after a
        pre-eviction has room), each in ascending key order. With the timer on, the book
        lists the residents in touch order, and its first timer_evictions more expired."""
        before, base = self.timer_evictions, self.base
        held = list(self.deadlines if self._timer_init else base)
        hit = self.replay((key,)) == 1
        expired = self.timer_evictions - before
        return hit, (*sorted(held[:expired]),
                     *sorted(old for old in held[expired:] if old not in base))

    def replay(self, keys, fetch=None) -> int:
        """Demand-access every key in order, leaving the state that one access per
        key would leave; returns the hits. The rules that are on run in the base's replay."""
        on = self._timer_init or self._halfway is not None
        return self.base.replay(keys, self if on else None, fetch)

    def _end_replay(self, tick, due, expired, cleared):
        """Take back the state a base replay kept in locals, and drop the keys that
        left the cache from the timer book, which is lazy only within a replay."""
        self.ticks, self._due = tick, due
        self.timer_evictions += expired
        self.halfway_evictions += cleared
        base, deadlines = self.base, self.deadlines
        for key in [key for key in deadlines if key not in base]:
            del deadlines[key]
