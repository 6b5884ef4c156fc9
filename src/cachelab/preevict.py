"""Pre-eviction wrappers: halfway address-range clearing and per-entry expiry timers."""

from collections import OrderedDict
from dataclasses import dataclass

from .policies import AccessOutcome, _new_tuple
from .trace import InvalidParam


@dataclass(frozen=True)
class PreEvictConfig:
    halfway_enabled: bool = False
    address_space_size: int = 0
    timer_enabled: bool = False
    timer_init: int = 2048

    def __post_init__(self):
        if self.timer_init < 1:
            raise InvalidParam(f"timer_init must be >= 1, got {self.timer_init}")
        if self.halfway_enabled and self.address_space_size < 2:
            raise InvalidParam("address_space_size must be >= 2 with halfway enabled")

    @property
    def enabled(self):
        return self.halfway_enabled or self.timer_enabled


class PreEvictingCache:
    """Per access: expire timers, serve the hit, else apply the halfway rule then
    the base policy's insertion. With both axes disabled this is an identity wrapper.

    Timers tick once per access call; an access or insert sets its key's timer to
    timer_init. One period for all timers means keys expire in touch order, so
    `deadlines` is a queue and each access pops its due prefix. With the timer on it
    holds exactly the residents at every method boundary: a key that leaves the
    cache leaves the queue. The residents below halfway are among `low`, the keys
    below halfway inserted since the last clearing. Both cost O(1) amortized per
    access, plus sorting the removed keys: `access` reports expiries and clearings
    in ascending key order. `replay` runs both rules inside the base policy's replay
    loop, where nothing is reported and the book is lazy: a policy victim stays in
    it until it comes due or the replay ends. The base cache must start empty and
    take every insertion through it."""

    def __init__(self, base, config: PreEvictConfig):
        self.base = base
        self.timer_evictions = self.halfway_evictions = 0
        self.ticks = 0
        self.deadlines = OrderedDict()  # key -> tick its timer runs out, in touch order
        self.low = set()
        self._timer_init = config.timer_init if config.timer_enabled else 0
        self._halfway = config.address_space_size // 2 if config.halfway_enabled else None
        self._due = self._timer_init  # never above the earliest deadline in the book

    def access(self, key, seq) -> AccessOutcome:
        base = self.base
        removed = ()
        timer_init = self._timer_init
        if timer_init:
            self.ticks = tick = self.ticks + 1
            if tick >= self._due:
                removed = self._expire(tick)
        if self._halfway is not None:
            if key < self._halfway:
                self.low.add(key)  # a resident low key is already there
            elif self.low and key not in base:
                removed = [*removed, *self._clear_low()]
        outcome = base.access(key, seq)
        if timer_init:
            deadlines = self.deadlines
            for victim in outcome.evicted:
                del deadlines[victim]
            deadlines[key] = tick + timer_init
            deadlines.move_to_end(key)
        if not removed:
            return outcome
        return _new_tuple(AccessOutcome, (outcome.hit, (*removed, *outcome.evicted)))

    def replay(self, keys) -> int:
        """Demand-access every key in order, leaving the state that one access per
        key would leave; returns the hits. Both rules run inside the base's replay."""
        return self.base.replay(keys, self)

    def _end_replay(self, tick, due, expired, cleared):
        """Take back the state a base replay kept in locals, and drop the keys that
        left the cache from the timer book, which is lazy only within a replay."""
        self.ticks, self._due = tick, due
        self.timer_evictions += expired
        self.halfway_evictions += cleared
        base, deadlines = self.base, self.deadlines
        for key in [key for key in deadlines if key not in base]:
            del deadlines[key]

    def _clear_low(self):
        """Evict the resident keys below halfway in ascending order; empty `low`."""
        base = self.base
        cleared = sorted(k for k in self.low if k in base)
        self.low.clear()
        for low in cleared:
            base.evict_key(low)
        if self._timer_init:
            for low in cleared:
                del self.deadlines[low]
        self.halfway_evictions += len(cleared)
        return cleared

    def _expire(self, tick):
        """Pop the book's due prefix and evict it in ascending key order."""
        deadlines = self.deadlines
        expired = []
        while deadlines:
            key, deadline = next(iter(deadlines.items()))
            if deadline > tick:
                self._due = deadline
                break
            del deadlines[key]
            expired.append(key)
        else:
            # every later touch runs out at tick + timer_init or after
            self._due = tick + self._timer_init
        expired.sort()
        evict_key = self.base.evict_key
        for key in expired:
            evict_key(key)
        self.timer_evictions += len(expired)
        return expired

    def insert(self, key, seq) -> tuple:
        evicted = self.base.insert(key, seq)
        if self._timer_init:
            deadlines = self.deadlines
            for victim in evicted:
                del deadlines[victim]
            deadlines[key] = self.ticks + self._timer_init  # not resident: joins the back
        if self._halfway is not None and key < self._halfway:
            self.low.add(key)
        return evicted
