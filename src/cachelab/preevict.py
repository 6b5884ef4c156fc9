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
    `deadlines` is a queue and each access pops its due prefix; base-policy victims
    leave it at once, other keys that left are skipped when due. The residents below
    halfway are among `low`, the keys below halfway inserted since the last clearing.
    Both cost O(1) amortized per access, plus sorting the victims. The base cache
    must start empty and take every insertion through the wrapper."""

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
        if self._halfway is not None and key not in base.entries:
            if key < self._halfway:
                self.low.add(key)
            elif self.low:
                cleared = sorted(k for k in self.low if k in base.entries)
                self.low.clear()
                for low in cleared:
                    base.evict_key(low)
                self.halfway_evictions += len(cleared)
                removed = [*removed, *cleared]
        outcome = base.access(key, seq)
        if timer_init:
            deadlines = self.deadlines
            for victim in outcome.evicted:
                deadlines.pop(victim, None)
            deadlines[key] = tick + timer_init
            deadlines.move_to_end(key)
        if not removed:
            return outcome
        hit, evicted, prefetched_hit = outcome
        return _new_tuple(AccessOutcome, (hit, (*removed, *evicted), prefetched_hit))

    def _expire(self, tick):
        """Pop the book's due prefix; evict its resident keys in ascending order."""
        deadlines = self.deadlines
        resident = self.base.entries
        expired = []
        while deadlines:
            key = next(iter(deadlines))
            deadline = deadlines[key]
            if deadline > tick:
                self._due = deadline
                break
            del deadlines[key]
            if key in resident:
                expired.append(key)
        else:
            # every later touch runs out at tick + timer_init or after
            self._due = tick + self._timer_init
        expired.sort()
        for key in expired:
            self.base.evict_key(key)
        self.timer_evictions += len(expired)
        return expired

    def insert(self, key, seq, prefetched=False) -> tuple:
        evicted = self.base.insert(key, seq, prefetched)
        if self._timer_init:
            deadlines = self.deadlines
            for victim in evicted:
                deadlines.pop(victim, None)
            deadlines[key] = self.ticks + self._timer_init
            deadlines.move_to_end(key)
        if self._halfway is not None and key < self._halfway:
            self.low.add(key)
        return evicted
