"""Trace-driven simulation runner, comparison harness, and report emission."""

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .policies import CacheConfig, PreEvictConfig, PreEvictingCache, make_cache
from .prefetch import PredictorConfig, PrefetchConfig, Prefetcher, coverage
from .trace import InvalidParam, Trace, shown


class DuplicateLabel(InvalidParam):
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
    """One pass over the trace under one configuration: the pre-eviction wrapper over
    the policy replays the key column, with the prefetcher's step inside the replay
    when prefetch is on. A prefetch only inserts a key that an earlier access brought
    in, so a key's first access always misses: compulsory misses are the distinct keys
    on every path. Each demand miss and each prefetch inserts one key, so evictions of
    every cause are misses + issued - residents. Deterministic for identical inputs.
    """
    cache = make_cache(config.cache)
    front = PreEvictingCache(cache, config.pre or PreEvictConfig())
    keys = trace.keys
    fetch = config.prefetch and Prefetcher(config.prefetch, config.predictor or PredictorConfig())
    hits = front.replay(keys, fetch=fetch)
    issued, useful, harmful = (fetch.issued, fetch.useful, fetch.harmful) if fetch else (0, 0, 0)
    accesses = len(keys)
    misses = accesses - hits
    return SimReport(
        label=config.label,
        accesses=accesses,
        demand_hits=hits,
        demand_misses=misses,
        compulsory_misses=trace.distinct,
        evictions=misses + issued - len(cache),
        timer_evictions=front.timer_evictions,
        halfway_evictions=front.halfway_evictions,
        prefetch_issued=issued,
        prefetch_useful=useful,
        prefetch_useless=issued - useful - harmful,
        prefetch_harmful=harmful,
        prefetch_coverage=coverage(useful, misses),
        hit_ratio=hits / accesses if accesses else 0.0,
        distinct_keys=trace.distinct,
    )


def check_labels(configs):
    """Raise DuplicateLabel at the first label that an earlier config holds."""
    labels = set()
    for config in configs:
        if config.label in labels:
            raise DuplicateLabel(f"duplicate label {shown(config.label)}")
        labels.add(config.label)


def compare(trace: Trace, configs) -> list:
    """Independent run_sim per config over the same trace, reports in config order."""
    check_labels(configs)
    return [run_sim(trace, config) for config in configs]


def _cell(name, value):
    if name in FLOAT_FIELDS:
        return f"{value:.4f}"
    return str(value)


def emit_report(reports, format: str = "table") -> str:
    if format == "json":
        payload = [{name: getattr(r, name) for name in REPORT_FIELDS} for r in reports]
        return json.dumps(payload, indent=2) + "\n"
    rows = [REPORT_FIELDS, *([_cell(name, getattr(r, name)) for name in REPORT_FIELDS]
                             for r in reports)]
    if format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    if format == "table":
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                       for row in rows)
    raise ValueError(f"unknown report format {shown(format)}")


def parse_report_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != REPORT_FIELDS:
        raise ValueError(f"unexpected csv header {shown(header)}")
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
                                 f"bad value {shown(cell)}")
            values[name] = value
        reports.append(SimReport(**values))
    return reports
