"""Markov next-key prediction, prefetch decisions, and prefetch coverage."""

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass

from .trace import InvalidParam, require_ints

ON_MISS = "on_miss"
ON_EVERY_ACCESS = "on_every_access"


def _check_predictor_params(order, alpha, min_support):
    require_ints(order=order, min_support=min_support)
    if order not in (1, 2):
        raise InvalidParam(f"order must be 1 or 2, got {order}")
    if not (isinstance(alpha, numbers.Real) and 0 <= alpha < math.inf):
        raise InvalidParam(f"alpha must be finite and >= 0, got {alpha!r}")
    if min_support < 0:
        raise InvalidParam(f"min_support must be >= 0, got {min_support}")


class _Successors(dict):
    """One context's {successor: count}, with their total and the head of their ranking."""

    __slots__ = ("total", "leader", "top")

    def __init__(self, key):
        self[key] = 1
        self.total = 1
        self.leader = key
        self.top = 1


class MarkovPredictor:
    """Order-1 or order-2 successor counts over trace keys with pseudocount
    smoothing. Purely a function of the observed key sequence. `observe` counts one
    key; `leaders` counts a whole key column and answers each event's top-1 question
    in the same pass, since that answer never depends on the cache."""

    def __init__(self, order=1, alpha=1.0, min_support=2):
        _check_predictor_params(order, alpha, min_support)
        self.order = order
        self.alpha = alpha
        self.min_support = min_support
        self.counts = {}   # context tuple -> _Successors
        self.context = ()  # rolling window of the last `order` keys
        self.row = None    # counts.get(context), kept so observe need not look it up

    def observe(self, key):
        """Count key after the current context, then slide the context over key.
        Returns the new context's row, the one predict_next reads, or None.
        `leaders` repeats this counting rule for a whole key column."""
        ctx = self.context
        if len(ctx) == self.order:
            row = self.row
            if row is None:
                self.counts[ctx] = _Successors(key)
            else:
                count = row[key] = row.get(key, 0) + 1
                row.total += 1
                # counts only grow, so the leader is always the head of the ranking
                if count > row.top or (count == row.top and key < row.leader):
                    row.leader = key
                    row.top = count
            ctx = ctx[1:]
        self.context = ctx = ctx + (key,)
        self.row = row = self.counts.get(ctx)
        return row

    def leaders(self, keys, p_min):
        """Observe every key in order and list, per key, what predict_next(None, 1)
        ranks first after it if the row has min_support and that key's probability is
        at least p_min, else None. It leaves counts, context and row as one observe
        per key would, so chunked passes carry on as stepped calls do. observe's
        counting rule is repeated here, in one loop over locals."""
        order, alpha, min_support = self.order, self.alpha, self.min_support
        counts, ctx, row = self.counts, self.context, self.row
        get = counts.get
        out = []
        append = out.append
        for key in keys:
            if row is not None:
                if key == row.leader:  # the leader's count grows, so it stays the head
                    row[key] = row.top = row.top + 1
                else:
                    count = row[key] = row.get(key, 0) + 1
                    if count > row.top or (count == row.top and key < row.leader):
                        row.leader = key
                        row.top = count
                row.total += 1
            elif len(ctx) < order:  # the first keys only fill the context
                ctx += (key,)
                append(None)
                continue
            else:
                counts[ctx] = _Successors(key)
            ctx = (key,) if order == 1 else (ctx[1], key)
            row = get(ctx)
            if row is None or row.total < min_support:
                append(None)
            else:  # predict_next's top-1 probability, the same float
                append(row.leader if (row.top + alpha) / (row.total + alpha * len(row)) >= p_min
                       else None)
        self.context, self.row = ctx, row
        return out

    def predict_next(self, context=None, top_k=1):
        """Ranked (key, probability) pairs for the context's seen successors,
        descending probability, ties by ascending key. Empty below min_support. At
        alpha=0 these are the learn_cpts row of the chain net {k_t: [k_t-o .. k_t-1]};
        alpha smooths over the seen successors (alpha * len(row)), not the cardinality."""
        row = self.row if context is None else self.counts.get(tuple(context))
        if row is None or row.total < self.min_support:
            return []
        alpha = self.alpha
        denom = row.total + alpha * len(row)
        # the shared denominator makes count order and probability order identical
        if top_k == 1:
            return [(row.leader, (row.top + alpha) / denom)]
        # a stable sort by count, descending, keeps tied keys in ascending order
        ranked = sorted(sorted(row), key=row.__getitem__, reverse=True)
        return [(key, (row[key] + alpha) / denom) for key in ranked[:top_k]]


@dataclass(frozen=True)
class PrefetchConfig:
    top_k: int = 1
    p_min: float = 0.1
    trigger: str = ON_EVERY_ACCESS

    def __post_init__(self):
        require_ints(top_k=self.top_k)
        if self.top_k < 1:
            raise InvalidParam(f"top_k must be >= 1, got {self.top_k}")
        if not (isinstance(self.p_min, numbers.Real) and 0.0 <= self.p_min <= 1.0):
            raise InvalidParam(f"p_min must be in [0, 1], got {self.p_min!r}")
        if self.trigger not in (ON_MISS, ON_EVERY_ACCESS):
            raise InvalidParam(f"unknown trigger {self.trigger!r}")


@dataclass(frozen=True)
class PredictorConfig:
    order: int = 1
    alpha: float = 1.0
    min_support: int = 2

    def __post_init__(self):
        _check_predictor_params(self.order, self.alpha, self.min_support)


class Prefetcher:
    """One run's prefetching, which a policy's replay steps after each demand access,
    and its ledger. pending maps each prefetched key to the key its insertion
    evicted, or None, and by_victim is its inverse, so the ledger never holds more
    entries than the trace has keys. An entry is live while its key stays resident:
    a demand hit on it is useful, a demand miss of its victim harmful if it was
    resident when that access began, and an entry never judged so is useless."""

    def __init__(self, config: PrefetchConfig, model: PredictorConfig):
        self.predictor = MarkovPredictor(model.order, model.alpha, model.min_support)
        self.settings = (config, config.top_k, model.min_support,
                         config.trigger != ON_EVERY_ACCESS)
        self.pending = {}                  # prefetched key -> the key it evicted, or None
        self.by_victim = defaultdict(set)  # victim or None -> the pending keys it heads
        self.issued = self.useful = self.harmful = 0

    def leads(self, keys):
        """(keys, lead) for one replay of keys. A top-1 run's leaders depend on the
        keys alone, so one pass lists them and lead() hands out the next event's; keys
        that iterate only once come back listed, for the replay to read again. A top-k
        run observes each key in the replay and ranks its row only where the step
        fires, so an on-miss hit never sorts; its lead is None."""
        config = self.settings[0]
        if config.top_k > 1:
            return keys, None
        if iter(keys) is keys:
            keys = list(keys)
        return keys, iter(self.predictor.leaders(keys, config.p_min)).__next__


def decide_prefetch(predictions, config: PrefetchConfig, resident) -> list:
    """Up to top_k predicted keys at or above p_min that are not resident, in rank order."""
    chosen = [key for key, prob in predictions if prob >= config.p_min and key not in resident]
    return chosen[:config.top_k]


def coverage(useful, demand_misses) -> float:
    """100 * useful / (useful + demand misses); 0.0 when both are zero."""
    denom = useful + demand_misses
    if denom == 0:
        return 0.0
    return 100.0 * useful / denom
