"""Markov next-key prediction, prefetch decisions, and prefetch coverage."""

import math
import numbers
from collections import defaultdict
from dataclasses import dataclass

from .trace import InvalidParam, require_ints

ON_MISS = "on_miss"
ON_EVERY_ACCESS = "on_every_access"


def _check_predictor_params(order, alpha, min_support):
    """The checked order and min_support, as ints."""
    order, min_support = require_ints(order=order, min_support=min_support)
    if order not in (1, 2):
        raise InvalidParam(f"order must be 1 or 2, got {order}")
    if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and 0 <= alpha < math.inf):
        raise InvalidParam(f"alpha must be finite and >= 0, got {alpha!r}")
    if min_support < 0:
        raise InvalidParam(f"min_support must be >= 0, got {min_support}")
    return order, min_support


class _Successors:
    """One context's successor counts: their total, the head of their ranking
    (leader, with its count top) and how many distinct successors there are (width).
    A row with one successor holds no dict; from the second one on, others maps every
    successor to its count in first-seen order, the leader's entry written from top
    only when the leader changes or the row is read."""

    __slots__ = ("total", "leader", "top", "width", "others")

    def __init__(self, key):
        self.total = self.top = self.width = 1
        self.leader = key
        self.others = None

    def successors(self):
        """{successor: count} in first-seen order: the row's own dict, to read only."""
        if self.others is None:
            return {self.leader: self.top}
        self.others[self.leader] = self.top
        return self.others


def _ranked(row, alpha, top_k):
    """A row's top_k (key, probability) pairs, descending probability, ties by
    ascending key: predict_next's ranking, and that of a leaders pass wider than 1."""
    counts = row.successors()
    denom = row.total + alpha * row.width
    # one denominator, so rank by count; a stable sort of sorted keys keeps ties ascending
    ranked = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    return [(key, (counts[key] + alpha) / denom) for key in ranked[:top_k]]


class MarkovPredictor:
    """Order-1 or order-2 successor counts over trace keys with pseudocount
    smoothing. Purely a function of the observed key sequence. `leaders` counts a
    key column and answers each event's top-k question in the same pass, since that
    answer never depends on the cache; `observe` is a pass over one key."""

    def __init__(self, order=1, alpha=1.0, min_support=2):
        self.order, self.min_support = _check_predictor_params(order, alpha, min_support)
        self.alpha = alpha
        self.counts = {}   # context tuple -> _Successors
        self.context = ()  # rolling window of the last `order` keys
        self.row = None    # counts.get(context), kept so the next pass need not look it up

    def observe(self, key):
        """Count key after the current context, then slide the context over key.
        Returns the new context's row, the one predict_next reads, or None."""
        self.leaders((key,), 1.0)
        return self.row

    def leaders(self, keys, p_min, top_k=1):
        """Count every key in order and list, per key, what predict_next(None, top_k)
        ranks at or above p_min after it, or None if nothing: the leader itself for
        top_k 1, else those keys as a tuple in rank order. It leaves counts, context
        and row as one pass per key would, so each pass carries on where the last one
        stopped. This loop holds the predictor's only copy of its counting rule."""
        order, alpha, min_support = self.order, self.alpha, self.min_support
        counts, ctx, row = self.counts, self.context, self.row
        get = counts.get
        out = []
        append = out.append
        for key in keys:
            if row is not None:
                if key == row.leader:  # the leader's count grows, so it stays the head
                    row.top += 1
                else:
                    others = row.others
                    if others is None:  # the second successor: the row's dict starts here
                        others = row.others = {row.leader: row.top}
                    count = others.get(key, 0) + 1
                    if count == 1:
                        row.width += 1
                    others[key] = count
                    if count > row.top or (count == row.top and key < row.leader):
                        others[row.leader] = row.top
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
            elif top_k == 1:  # predict_next's top-1 probability, the same float
                append(row.leader if (row.top + alpha) / (row.total + alpha * row.width) >= p_min
                       else None)
            else:  # probabilities descend, so those at or above p_min are a prefix
                append(tuple([k for k, prob in _ranked(row, alpha, top_k) if prob >= p_min])
                       or None)
        self.context, self.row = ctx, row
        return out

    def predict_next(self, context=None, top_k=1):
        """Ranked (key, probability) pairs for the context's seen successors,
        descending probability, ties by ascending key. Empty below min_support. At
        alpha=0 these are the learn_cpts row of the chain net {k_t: [k_t-o .. k_t-1]};
        alpha smooths over the seen successors (alpha * the row's width), not the cardinality.
        A context must hold `order` keys; None asks after the keys observed last."""
        if context is not None and len(context := tuple(context)) != self.order:
            raise InvalidParam(f"context must hold {self.order} keys, got {len(context)}")
        row = self.row if context is None else self.counts.get(context)
        if row is None or row.total < self.min_support:
            return []
        return _ranked(row, self.alpha, top_k)


@dataclass(frozen=True)
class PrefetchConfig:
    top_k: int = 1
    p_min: float = 0.1
    trigger: str = ON_EVERY_ACCESS

    def __post_init__(self):
        object.__setattr__(self, "top_k", *require_ints(top_k=self.top_k))
        if self.top_k < 1:
            raise InvalidParam(f"top_k must be >= 1, got {self.top_k}")
        if isinstance(self.p_min, bool) or not (isinstance(self.p_min, numbers.Real)
                                                and 0.0 <= self.p_min <= 1.0):
            raise InvalidParam(f"p_min must be in [0, 1], got {self.p_min!r}")
        if self.trigger not in (ON_MISS, ON_EVERY_ACCESS):
            raise InvalidParam(f"unknown trigger {self.trigger!r}")


@dataclass(frozen=True)
class PredictorConfig:
    order: int = 1
    alpha: float = 1.0
    min_support: int = 2

    def __post_init__(self):
        order, min_support = _check_predictor_params(self.order, self.alpha, self.min_support)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "min_support", min_support)


class Prefetcher:
    """One run's prefetching, which a policy's replay steps after each demand access
    from the entries of one leaders pass, and its ledger. pending maps each prefetched
    key to the key its insertion evicted, or None, and by_victim is its inverse, so
    the ledger never holds more entries than the trace has keys. An entry is live
    while its key stays resident: a demand hit on it is useful, a demand miss of its
    victim harmful if it was resident when that access began, and an entry never
    judged so is useless."""

    def __init__(self, config: PrefetchConfig, model: PredictorConfig):
        self.predictor = MarkovPredictor(model.order, model.alpha, model.min_support)
        self.config, self.on_miss = config, config.trigger != ON_EVERY_ACCESS
        self.pending = {}                  # prefetched key -> the key it evicted, or None
        self.by_victim = defaultdict(set)  # victim or None -> the pending keys it heads
        self.issued = self.useful = self.harmful = 0

    def leads(self, keys):
        """(keys, lead) for one replay of keys. What the predictor ranks at each event
        depends on the keys alone, so one leaders pass lists every event's entry and
        lead() hands out the next one; an on-miss hit's entry is read and skipped.
        Keys that iterate only once come back listed, for the replay to read again."""
        if iter(keys) is keys:
            keys = list(keys)
        config = self.config
        return keys, iter(self.predictor.leaders(keys, config.p_min, config.top_k)).__next__


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
