"""Trace-driven simulation runner, comparison harness, and report emission."""

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .policies import CacheConfig, make_cache
from .preevict import PreEvictConfig, PreEvictingCache
from .prefetch import (
    ON_EVERY_ACCESS,
    MarkovPredictor,
    PredictorConfig,
    PrefetchConfig,
    PrefetchLog,
    PrefetchStats,
    coverage,
    decide_prefetch,
)
from .trace import Trace


class DuplicateLabel(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    cache: CacheConfig
    pre: PreEvictConfig = None
    prefetch: PrefetchConfig = None
    predictor: PredictorConfig = None
    label: str = ""


@dataclass
class SimReport:
    label: str
    accesses: int
    demand_hits: int
    demand_misses: int
    compulsory_misses: int
    evictions: int
    timer_evictions: int
    halfway_evictions: int
    prefetch_issued: int
    prefetch_useful: int
    prefetch_useless: int
    prefetch_harmful: int
    prefetch_coverage: float
    hit_ratio: float
    distinct_keys: int


REPORT_FIELDS = [f.name for f in fields(SimReport)]
FLOAT_FIELDS = ("prefetch_coverage", "hit_ratio")


def run_sim(trace: Trace, config: RunConfig) -> SimReport:
    """One pass over the trace under one configuration.

    Per event: timer-tick evictions, predictor observation, hit/miss resolution
    (halfway filter then base policy on a miss), then prefetch decide/insert.
    Prefetch outcomes resolve as their events occur, a demand miss ahead of the
    same access's evictions, so a victim re-request beats the eviction of the
    entry that displaced it. A plain config (no prefetch, no enabled pre-eviction)
    replays the key column inside the policy. Deterministic for identical inputs.
    """
    cache = make_cache(config.cache)
    wrapper = None
    if config.pre is not None and config.pre.enabled:
        wrapper = PreEvictingCache(cache, config.pre)
    front = wrapper if wrapper is not None else cache

    prefetching = config.prefetch is not None
    if prefetching:
        pcfg = config.prefetch
        predictor_cfg = config.predictor if config.predictor is not None else PredictorConfig()
        predictor = MarkovPredictor(predictor_cfg.order, predictor_cfg.alpha,
                                    predictor_cfg.min_support)
        observe, predict = predictor.observe, predictor.predict_next
        log = PrefetchLog()
        issue, demand_hit = log.issue, log.demand_hit
        demand_miss, resolve_evicted = log.demand_miss, log.evicted
        prefetch_always = pcfg.trigger == ON_EVERY_ACCESS
        insert = front.insert

    if wrapper is None and not prefetching:
        # only a demand miss inserts here, so every first access misses
        hits, evictions = cache.replay(trace.keys)
        misses = len(trace) - hits
        compulsory = distinct = len(set(trace.keys))
    else:
        hits = misses = compulsory = evictions = 0
        seen = set()
        access = front.access
        for seq, key in enumerate(trace.keys):
            if prefetching:
                observe(key)
            hit, evicted = access(key, seq)
            if hit:
                hits += 1
                if prefetching:
                    demand_hit(key)
            else:
                misses += 1
                if key not in seen:
                    compulsory += 1
                if prefetching:
                    demand_miss(key)
            seen.add(key)
            if evicted:
                evictions += len(evicted)
                if prefetching:
                    for victim in evicted:
                        resolve_evicted(victim)
            if prefetching and (prefetch_always or not hit):
                for pk in decide_prefetch(predict(None, pcfg.top_k), pcfg, cache):
                    victims = insert(pk, seq)
                    issue(pk, victims[0] if victims else None)
                    evictions += len(victims)
                    for victim in victims:
                        resolve_evicted(victim)
        distinct = len(seen)

    stats = PrefetchStats()
    if prefetching:
        log.finalize()
        stats = log.stats

    accesses = hits + misses
    return SimReport(
        label=config.label,
        accesses=accesses,
        demand_hits=hits,
        demand_misses=misses,
        compulsory_misses=compulsory,
        evictions=evictions,
        timer_evictions=wrapper.timer_evictions if wrapper is not None else 0,
        halfway_evictions=wrapper.halfway_evictions if wrapper is not None else 0,
        prefetch_issued=stats.issued,
        prefetch_useful=stats.useful,
        prefetch_useless=stats.useless,
        prefetch_harmful=stats.harmful,
        prefetch_coverage=coverage(stats.useful, misses),
        hit_ratio=hits / accesses if accesses else 0.0,
        distinct_keys=distinct,
    )


def compare(trace: Trace, configs) -> list:
    """Independent run_sim per config over the same trace, reports in config order."""
    labels = set()
    for config in configs:
        if config.label in labels:
            raise DuplicateLabel(f"duplicate label {config.label!r}")
        labels.add(config.label)
    return [run_sim(trace, config) for config in configs]


def _cell(name, value):
    if name in FLOAT_FIELDS:
        return f"{value:.4f}"
    return str(value)


def emit_report(reports, format: str = "table") -> str:
    if format == "json":
        payload = [{name: getattr(r, name) for name in REPORT_FIELDS} for r in reports]
        return json.dumps(payload, indent=2) + "\n"
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(REPORT_FIELDS)
        for r in reports:
            writer.writerow([_cell(name, getattr(r, name)) for name in REPORT_FIELDS])
        return out.getvalue()
    if format == "table":
        rows = [REPORT_FIELDS]
        for r in reports:
            rows.append([_cell(name, getattr(r, name)) for name in REPORT_FIELDS])
        widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_FIELDS))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def parse_report_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != REPORT_FIELDS:
        raise ValueError(f"unexpected csv header {header!r}")
    reports = []
    for row in reader:
        if len(row) != len(REPORT_FIELDS):
            raise ValueError(f"csv line {reader.line_num}: expected {len(REPORT_FIELDS)} cells, "
                             f"got {len(row)}")
        values = {"label": row[0]}
        for name, cell in zip(REPORT_FIELDS[1:], row[1:]):
            try:
                value = float(cell) if name in FLOAT_FIELDS else int(cell)
            except ValueError:
                value = math.nan  # fails the check below
            if not 0 <= value < math.inf:
                raise ValueError(f"csv line {reader.line_num}: column {name!r}: "
                                 f"bad value {cell!r}")
            values[name] = value
        reports.append(SimReport(**values))
    return reports
